#include "tquel/binder.h"

#include <gtest/gtest.h>

#include "tquel/parser.h"

namespace tdb {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AddRelation("s_rel", DbType::kStatic);
    AddRelation("r_rel", DbType::kRollback);
    AddRelation("h_rel", DbType::kHistorical);
    AddRelation("t_rel", DbType::kTemporal);
    ranges_ = {{"s", "s_rel"}, {"r", "r_rel"}, {"h", "h_rel"}, {"t", "t_rel"}};
  }

  void AddRelation(const std::string& name, DbType type) {
    RelationMeta meta;
    meta.name = name;
    auto schema = Schema::Create({{"id", TypeId::kInt4, 4, false},
                                  {"amount", TypeId::kInt4, 4, false},
                                  {"tag", TypeId::kChar, 8, false}},
                                 type);
    ASSERT_TRUE(schema.ok());
    meta.schema = std::move(schema).value();
    ASSERT_TRUE(catalog_.Create(std::move(meta)).ok());
  }

  Result<BoundStatement> Bind(const std::string& text) {
    auto stmt = Parser::ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    stmt_ = std::move(stmt).value();
    Binder binder(&catalog_, &ranges_);
    switch (stmt_->kind) {
      case Statement::Kind::kRetrieve:
        return binder.BindRetrieve(static_cast<RetrieveStmt*>(stmt_.get()));
      case Statement::Kind::kAppend:
        return binder.BindAppend(static_cast<AppendStmt*>(stmt_.get()));
      case Statement::Kind::kDelete:
        return binder.BindDelete(static_cast<DeleteStmt*>(stmt_.get()));
      case Statement::Kind::kReplace:
        return binder.BindReplace(static_cast<ReplaceStmt*>(stmt_.get()));
      default:
        return Status::Internal("not a bindable statement");
    }
  }

  MemEnv env_;
  Catalog catalog_{&env_, "/cat"};
  std::map<std::string, std::string> ranges_;
  std::unique_ptr<Statement> stmt_;
};

TEST_F(BinderTest, ResolvesVarsAndAttrs) {
  auto bound = Bind("retrieve (t.id, t.amount) where t.id = 5");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->vars.size(), 1u);
  EXPECT_EQ(bound->vars[0].rel->name, "t_rel");
  auto* r = static_cast<RetrieveStmt*>(stmt_.get());
  EXPECT_EQ(r->targets[0].expr->var_index, 0);
  EXPECT_EQ(r->targets[0].expr->attr_index, 0);
  EXPECT_EQ(r->targets[1].expr->attr_index, 1);
}

TEST_F(BinderTest, TwoVarsInFirstReferenceOrder) {
  auto bound = Bind("retrieve (h.id, t.id) where h.id = t.amount");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->vars.size(), 2u);
  EXPECT_EQ(bound->vars[0].rel->name, "h_rel");
  EXPECT_EQ(bound->vars[1].rel->name, "t_rel");
}

TEST_F(BinderTest, UnknownVarFails) {
  auto bound = Bind("retrieve (z.id)");
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, UnknownAttrFails) {
  auto bound = Bind("retrieve (t.nope)");
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, ImplicitAttrsAreBindable) {
  auto bound = Bind("retrieve (t.id, t.transaction_start, t.valid_to)");
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
}

TEST_F(BinderTest, TargetNamesDerivedAndDeduped) {
  auto bound = Bind("retrieve (t.id, h.id, x = t.amount + 1)");
  ASSERT_TRUE(bound.ok());
  auto* r = static_cast<RetrieveStmt*>(stmt_.get());
  EXPECT_EQ(r->targets[0].name, "id");
  EXPECT_EQ(r->targets[1].name, "id_2");  // deduplicated
  EXPECT_EQ(r->targets[2].name, "x");
}

TEST_F(BinderTest, AllExpansion) {
  auto bound = Bind("retrieve (t.all)");
  ASSERT_TRUE(bound.ok());
  auto* r = static_cast<RetrieveStmt*>(stmt_.get());
  ASSERT_EQ(r->targets.size(), 3u);  // user attributes only
  EXPECT_EQ(r->targets[0].name, "id");
  EXPECT_EQ(r->targets[2].name, "tag");
}

TEST_F(BinderTest, WhenRequiresValidTime) {
  EXPECT_TRUE(Bind("retrieve (t.id) when t overlap \"now\"").ok());
  EXPECT_TRUE(Bind("retrieve (h.id) when h overlap \"now\"").ok());
  EXPECT_FALSE(Bind("retrieve (r.id) when r overlap \"now\"").ok());
  EXPECT_FALSE(Bind("retrieve (s.id) when s overlap \"now\"").ok());
}

TEST_F(BinderTest, AsOfRequiresTransactionTime) {
  EXPECT_TRUE(Bind("retrieve (t.id) as of \"now\"").ok());
  EXPECT_TRUE(Bind("retrieve (r.id) as of \"now\"").ok());
  EXPECT_FALSE(Bind("retrieve (h.id) as of \"now\"").ok());
  EXPECT_FALSE(Bind("retrieve (s.id) as of \"now\"").ok());
}

TEST_F(BinderTest, MixedVarsNeedCommonSupport) {
  // A when clause mentioning a valid-time var is fine, but if a rollback
  // var participates in the same statement the clause is inapplicable.
  EXPECT_FALSE(
      Bind("retrieve (t.id, r.id) where t.id = r.id when t overlap \"now\"")
          .ok());
}

TEST_F(BinderTest, AsOfMustBeConstant) {
  EXPECT_FALSE(Bind("retrieve (t.id) as of start of t").ok());
}

TEST_F(BinderTest, ValidClauseOnRollbackFails) {
  EXPECT_FALSE(
      Bind("retrieve (r.id) valid from \"1980\" to \"1981\"").ok());
}

TEST_F(BinderTest, AggregatesOnlyInTargets) {
  EXPECT_TRUE(Bind("retrieve (n = count(t.id))").ok());
  EXPECT_FALSE(Bind("retrieve (t.id) where count(t.id) > 1").ok());
}

TEST_F(BinderTest, AppendChecksRelationAndTargets) {
  EXPECT_TRUE(Bind("append to t_rel (id = 1)").ok());
  EXPECT_FALSE(Bind("append to missing (id = 1)").ok());
  EXPECT_FALSE(Bind("append to t_rel (nope = 1)").ok());
  // Implicit attributes cannot be assigned directly.
  EXPECT_FALSE(Bind("append to t_rel (valid_from = 1)").ok());
  // Bare expression targets are rejected for append.
  EXPECT_FALSE(Bind("append to t_rel (t.id)").ok());
}

TEST_F(BinderTest, AppendValidClauseApplicability) {
  EXPECT_TRUE(
      Bind("append to h_rel (id = 1) valid from \"1980\" to \"forever\"")
          .ok());
  EXPECT_FALSE(
      Bind("append to r_rel (id = 1) valid from \"1980\" to \"forever\"")
          .ok());
}

TEST_F(BinderTest, DeleteAndReplaceBindVar) {
  EXPECT_TRUE(Bind("delete t where t.id = 1").ok());
  EXPECT_TRUE(Bind("replace t (amount = t.amount + 1)").ok());
  EXPECT_FALSE(Bind("delete z").ok());
  EXPECT_FALSE(Bind("replace t (nope = 1)").ok());
}

TEST_F(BinderTest, ReplaceAndDeleteRefuseASecondVariable) {
  for (const char* text :
       {"replace t (amount = t.amount + 1) where t.id = 5 and h.id = 5 and "
        "h.amount = 0",
        "delete t where t.id = 6 and h.id = 6",
        "replace t (amount = h.amount)"}) {
    auto bound = Bind(text);
    ASSERT_FALSE(bound.ok()) << text;
    EXPECT_EQ(bound.status().code(), StatusCode::kBindError) << text;
    EXPECT_NE(bound.status().ToString().find("not 'h'"), std::string::npos)
        << bound.status().ToString();
  }
}

TEST_F(BinderTest, RangeOverMissingRelation) {
  ranges_["q"] = "missing";
  EXPECT_FALSE(Bind("retrieve (q.id)").ok());
}

}  // namespace
}  // namespace tdb
