// Differential tests: a CompiledProgram must be observationally identical
// to the AST-walking Evaluator — same values, same truthiness, same error
// texts, same short-circuit behavior — on every construct it claims to
// support.  The golden I/O test covers the page counts; this covers the
// scalar/temporal semantics.

#include "exec/compiled_expr.h"

#include <gtest/gtest.h>

#include "tquel/parser.h"

namespace tdb {
namespace {

constexpr int32_t kNow = 1000;

std::unique_ptr<Statement> g_stmt;

Expr* ParseExpr(const std::string& text) {
  auto stmt = Parser::ParseStatement("retrieve (x = " + text + ")");
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  g_stmt = std::move(stmt).value();
  return static_cast<RetrieveStmt*>(g_stmt.get())->targets[0].expr.get();
}

TemporalPred* ParsePred(const std::string& text) {
  auto stmt = Parser::ParseStatement("retrieve (h.a) when " + text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  g_stmt = std::move(stmt).value();
  return static_cast<RetrieveStmt*>(g_stmt.get())->when.get();
}

/// Evaluates `text` both ways against `binding` and checks agreement.
void ExpectSameScalar(const std::string& text, const Binding& binding) {
  Expr* e = ParseExpr(text);
  Evaluator eval{TimePoint(kNow)};
  auto prog = CompiledProgram::CompileExpr(*e);
  ASSERT_TRUE(prog.has_value()) << text << " did not compile";
  auto ast = eval.Eval(*e, binding);
  auto compiled = prog->Eval(binding, TimePoint(kNow));
  ASSERT_EQ(ast.ok(), compiled.ok()) << text;
  if (!ast.ok()) {
    EXPECT_EQ(ast.status().ToString(), compiled.status().ToString()) << text;
    return;
  }
  EXPECT_TRUE(ast->Equals(*compiled))
      << text << ": ast=" << ast->ToString() << " compiled="
      << compiled->ToString();
}

TEST(CompiledExprTest, ConstantsAndArithmetic) {
  Binding none;
  for (const char* text :
       {"1 + 2 * 3", "10 / 3", "10 % 3", "-5 + 2", "1.5 * 2", "7 / 2.0",
        "2 - 3 - 4", "-(1 + 2)", "\"abc\"", "3.25"}) {
    ExpectSameScalar(text, none);
  }
}

TEST(CompiledExprTest, ComparisonsAndLogic) {
  Binding none;
  for (const char* text :
       {"1 < 2", "2 <= 2", "3 > 4", "3 != 3", "\"abc\" = \"abc\"",
        "\"abc\" < \"abd\"", "1 = 1 and 2 = 2", "1 = 2 or 2 = 2",
        "not 1 = 2", "1 = 2 and 1 / 0 = 1", "1 = 1 or 1 / 0 = 1",
        "1 < 2 and 2 < 3 and 3 < 4", "1 = 2 or 2 = 3 or 3 = 3"}) {
    ExpectSameScalar(text, none);
  }
}

TEST(CompiledExprTest, ErrorTextsMatch) {
  Binding none;
  for (const char* text :
       {"1 / 0", "1 % 0", "1.5 % 2", "-\"abc\"", "1 + \"abc\""}) {
    ExpectSameScalar(text, none);
  }
}

TEST(CompiledExprTest, BoundParametersMatchTheEvaluator) {
  // Every value type an `execute` can bind, through arithmetic, compares
  // and a bare `$N`; the argument-less and short-argument cases must fail
  // with the Evaluator's text.
  const std::vector<Value> args = {
      Value::Int4(7),   Value::Float8(2.5), Value::Char("abc"),
      Value::Int1(-3),  Value::Int2(300),   Value::Time(TimePoint(42))};
  Binding none;
  for (const char* text :
       {"$1", "$1 + 1", "-$1", "$2 * 2", "$3", "$3 = \"abc\"", "$4",
        "$4 < $1", "$5 + $4", "$6", "$1 = 7 and $2 > 2", "$7", "$1 + $9"}) {
    Expr* e = ParseExpr(text);
    auto prog = CompiledProgram::CompileExpr(*e);
    ASSERT_TRUE(prog.has_value()) << text << " did not compile";
    for (const std::vector<Value>* params :
         {static_cast<const std::vector<Value>*>(nullptr), &args}) {
      Evaluator eval{TimePoint(kNow), params};
      CompiledProgram bound = *prog;
      if (params != nullptr) bound.BindParams(*params);
      auto ast = eval.Eval(*e, none);
      auto compiled = bound.Eval(none, TimePoint(kNow));
      ASSERT_EQ(ast.ok(), compiled.ok()) << text;
      if (!ast.ok()) {
        EXPECT_EQ(ast.status().ToString(), compiled.status().ToString())
            << text;
        continue;
      }
      EXPECT_TRUE(ast->Equals(*compiled) && ast->type() == compiled->type())
          << text << ": ast=" << ast->ToString()
          << " compiled=" << compiled->ToString();
    }
  }
}

TEST(CompiledExprTest, ColumnAccess) {
  VersionRef ref;
  ref.SetRow({Value::Int4(42), Value::Char("zz")});
  Binding binding = {&ref};
  Expr* e = ParseExpr("h.a * 2 + 1");
  auto* col = e->left->left.get();
  col->var_index = 0;
  col->attr_index = 0;
  auto prog = CompiledProgram::CompileExpr(*e);
  ASSERT_TRUE(prog.has_value());
  auto v = prog->Eval(binding, TimePoint(kNow));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 85);

  // Same program over an unbound slot reports the Evaluator's error text.
  Binding unbound = {nullptr};
  Evaluator eval{TimePoint(kNow)};
  auto ast_err = eval.Eval(*e, unbound);
  auto prog_err = prog->Eval(unbound, TimePoint(kNow));
  ASSERT_FALSE(ast_err.ok());
  ASSERT_FALSE(prog_err.ok());
  EXPECT_EQ(ast_err.status().ToString(), prog_err.status().ToString());
}

TEST(CompiledExprTest, GroupedAggregateDoesNotCompile) {
  Expr* e = ParseExpr("count(h.a by h.b)");
  EXPECT_FALSE(CompiledProgram::CompileExpr(*e).has_value());
}

class CompiledPredTest : public ::testing::Test {
 protected:
  CompiledPredTest() {
    h_.valid = Interval(TimePoint(100), TimePoint(200));
    i_.valid = Interval(TimePoint(150), TimePoint(300));
    binding_ = {&h_, &i_};
  }

  void BindVars(TemporalExpr* e) {
    if (e == nullptr) return;
    if (e->kind == TemporalExpr::Kind::kVar) {
      e->var_index = e->var == "h" ? 0 : 1;
    }
    BindVars(e->left.get());
    BindVars(e->right.get());
  }
  void BindVars(TemporalPred* p) {
    if (p == nullptr) return;
    BindVars(p->lexpr.get());
    BindVars(p->rexpr.get());
    BindVars(p->left.get());
    BindVars(p->right.get());
  }

  void ExpectSamePred(const std::string& text) {
    TemporalPred* pred = ParsePred(text);
    BindVars(pred);
    Evaluator eval{TimePoint(kNow)};
    CompiledProgram prog = CompiledProgram::CompilePred(*pred);
    auto ast = eval.EvalPred(*pred, binding_);
    auto compiled = prog.EvalPred(binding_, TimePoint(kNow));
    ASSERT_EQ(ast.ok(), compiled.ok()) << text;
    if (ast.ok()) {
      EXPECT_EQ(*ast, *compiled) << text;
    }
  }

  VersionRef h_;
  VersionRef i_;
  Binding binding_;
};

TEST_F(CompiledPredTest, AllPredicateShapes) {
  for (const char* text :
       {"h overlap i", "start of h precede i", "i precede h", "h equal h",
        "h equal i", "not i precede h", "h overlap i and h overlap i",
        "i precede h or h overlap i", "h overlap \"now\"",
        "h overlap (start of i extend end of i)",
        "(h overlap i) precede end of i"}) {
    ExpectSamePred(text);
  }
}

TEST_F(CompiledPredTest, EventAndTouchingIntervals) {
  i_.valid = Interval(TimePoint(200), TimePoint(300));
  ExpectSamePred("h overlap i");
  ExpectSamePred("h precede i");
  h_.valid = Interval::Event(TimePoint(250));
  ExpectSamePred("h overlap i");
  h_.valid = Interval::Event(TimePoint(300));
  ExpectSamePred("h overlap i");
}

TEST_F(CompiledPredTest, LazyColumnDecodeThroughPrograms) {
  // A predicate over a raw-bound tuple decodes only the attribute it reads.
  auto schema = Schema::Create({{"a", TypeId::kInt4, 4, false},
                                {"b", TypeId::kChar, 96, false}},
                               DbType::kStatic);
  ASSERT_TRUE(schema.ok());
  Row row = {Value::Int4(7), Value::Char(std::string(96, 'y'))};
  auto rec = EncodeRecord(*schema, row);
  ASSERT_TRUE(rec.ok());
  VersionRef ref;
  ref.BindRaw(*schema, rec->data());
  Binding binding = {&ref};

  Expr* e = ParseExpr("h.a = 7");
  e->left->var_index = 0;
  e->left->attr_index = 0;
  auto prog = CompiledProgram::CompileExpr(*e);
  ASSERT_TRUE(prog.has_value());
  auto v = prog->EvalBool(binding, TimePoint(kNow));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  // The full row is still materializable afterwards.
  EXPECT_EQ(ref.FullRow()[1].ToString(), row[1].ToString());
}

}  // namespace
}  // namespace tdb
