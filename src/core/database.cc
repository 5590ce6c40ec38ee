#include "core/database.h"

#include <algorithm>

#include "exec/exec_env.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "exec/worker_pool.h"
#include "tquel/ast.h"
#include "tquel/binder.h"
#include "tquel/parser.h"
#include "util/stringx.h"

namespace tdb {

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 DatabaseOptions options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  TDB_RETURN_NOT_OK(env->CreateDirIfMissing(dir));
  // A leftover journal means a statement was interrupted mid-write; roll
  // its pre-images back before anything reads the files.  This runs even
  // with durability off, so a crashed journaled run reopens clean under
  // any options.
  if (env->FileExists(Journal::PathFor(dir))) {
    TDB_RETURN_NOT_OK(Journal::Recover(env, dir));
  }
  std::unique_ptr<Database> db(new Database(env, dir, options));
  TDB_RETURN_NOT_OK(db->ResolveExecEnv());
  if (options.durability != DurabilityMode::kOff) {
    TDB_ASSIGN_OR_RETURN(db->journal_,
                         Journal::Open(env, dir, options.durability));
    db->journal_->set_group_window_micros(options.group_commit_window_micros);
    db->journal_->set_page_size(db->exec_template_.storage.page_size);
    db->catalog_.set_journal(db->journal_.get());
    db->exec_template_.journal = db->journal_.get();
  }
  // Wire observability before any relation file opens, so every per-file
  // IoCounters is born with its PagerMetrics block attached.  When metrics
  // are disabled nothing is wired and every instrumentation pointer in the
  // storage layer stays null.  (The session constructor wires its own
  // registry the same way.)
  if (obs::MetricsRegistry* m = db->metrics()) {
    if (db->journal_ != nullptr) db->journal_->set_metrics(m);
  }
  TDB_RETURN_NOT_OK(db->catalog_.Load());
  db->RestoreClock();
  db->default_session_ =
      std::unique_ptr<Session>(new Session(db.get(), 0, SessionOptions{}));
  return db;
}

Status Database::ResolveExecEnv() {
  uint32_t page_size = options_.page_size;
  bool checksum = options_.page_checksum;

  // The on-disk layout is fixed when the database is created: a `storage`
  // meta file in the directory records a non-paper layout and is
  // authoritative on reopen, and a database created without one keeps the
  // paper layout — whatever the caller asks for this run.
  const std::string meta_path = dir_ + "/storage";
  const bool meta_exists = env_->FileExists(meta_path);
  const bool existing = env_->FileExists(catalog_.CatalogPath());
  if (meta_exists) {
    TDB_ASSIGN_OR_RETURN(std::string text, env_->ReadFileToString(meta_path));
    for (const std::string& raw : Split(text, '\n')) {
      std::string line = Trim(raw);
      if (line.empty()) continue;
      size_t sp = line.find(' ');
      if (sp == std::string::npos) {
        return Status::Corruption("bad storage meta line: " + line);
      }
      std::string tag = line.substr(0, sp);
      int64_t v = 0;
      if (!ParseInt64(Trim(line.substr(sp + 1)), &v)) {
        return Status::Corruption("bad storage meta value: " + line);
      }
      if (tag == "page_size") {
        page_size = static_cast<uint32_t>(v);
      } else if (tag == "checksum") {
        checksum = v != 0;
      } else {
        return Status::Corruption("unknown storage meta tag: " + tag);
      }
    }
  } else if (existing) {
    page_size = kPageSize;
    checksum = false;
  }
  if (page_size < 512 || page_size > 65536 || page_size % 256 != 0) {
    return Status::Invalid(StrPrintf("page size %u out of range", page_size));
  }
  if (!meta_exists && !existing && (page_size != kPageSize || checksum)) {
    // A new database with a non-paper layout records it; the paper layout
    // writes nothing, keeping paper-mode directories byte-identical.
    TDB_RETURN_NOT_OK(env_->WriteStringToFile(
        meta_path, StrPrintf("page_size %u\nchecksum %d\n", page_size,
                             checksum ? 1 : 0)));
  }

  if (options_.pool_frames > 0) {
    BufferPool::Options po;
    po.total_frames = options_.pool_frames;
    po.per_file_frames =
        options_.pool_file_cap < 0 ? 0 : options_.pool_file_cap;
    po.page_size = page_size;
    pool_ = std::make_unique<BufferPool>(po);
  }

  ExecEnv& t = exec_template_;
  t.env = env_;
  t.dir = dir_;
  t.catalog = &catalog_;
  t.buffer_frames = options_.buffer_frames;
  t.join_method = options_.join_method;
  t.vector_exec = options_.vector_exec;
  t.compiled_expr = options_.compiled_expr;
  // SelVec indexes are uint16_t.
  t.morsel_cap = static_cast<size_t>(std::clamp(options_.morsel_capacity, 1,
                                                65535));
  t.exec_threads = ResolveExecThreads(options_.exec_threads);
  t.storage.page_size = page_size;
  t.storage.checksum = checksum;
  t.storage.pool = pool_.get();
  t.vacuum_partition = options_.vacuum_partition;
  return Status::OK();
}

std::unique_ptr<Session> Database::CreateSession(SessionOptions options) {
  const int id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this, id, std::move(options)));
}

void Database::PersistClock() const {
  // clock_mu_ held across the file write so journal-off concurrent writers
  // cannot tear the clock file.  Lock order: the journal's WriterLock ->
  // clock_mu_.
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (journal_ != nullptr) {
    (void)journal_->BeforeFileRewrite(ClockPath());
  }
  (void)env_->WriteStringToFile(ClockPath(),
                                StrPrintf("%d", now_.seconds()));
}

void Database::RestoreClock() {
  if (!env_->FileExists(ClockPath())) return;
  auto text = env_->ReadFileToString(ClockPath());
  if (!text.ok()) return;
  int64_t secs = 0;
  if (ParseInt64(Trim(*text), &secs)) {
    TimePoint persisted(static_cast<int32_t>(secs));
    // Resume strictly after the last recorded transaction instant.
    if (persisted >= now_) now_ = persisted.AddSeconds(1);
  }
}

TimePoint Database::AcquireTxTime() {
  std::lock_guard<std::mutex> lock(clock_mu_);
  const TimePoint t = now_;
  if (options_.auto_advance_seconds > 0) {
    now_ = now_.AddSeconds(options_.auto_advance_seconds);
  }
  return t;
}

Result<Relation*> Database::GetRelation(const std::string& name) {
  return default_session_->MakeExecEnv(now()).GetRelation(name);
}

Result<std::vector<ExecResult>> Database::ExecuteScript(
    const std::string& text) {
  return default_session_->ExecuteScript(text);
}

Result<ExecResult> Database::Execute(const std::string& text) {
  return default_session_->Execute(text);
}

Result<ResultSet> Database::Query(const std::string& text) {
  return default_session_->Query(text);
}

Result<std::shared_ptr<const PhysicalPlan>> Database::Plan(
    const std::string& text) {
  TDB_ASSIGN_OR_RETURN(auto stmts, Parser::ParseScript(text));
  if (stmts.size() != 1) {
    return Status::Invalid("Plan expects a single statement");
  }
  RetrieveStmt* retrieve = nullptr;
  if (stmts[0]->kind == Statement::Kind::kRetrieve) {
    retrieve = static_cast<RetrieveStmt*>(stmts[0].get());
  } else if (stmts[0]->kind == Statement::Kind::kExplain) {
    retrieve = static_cast<ExplainStmt*>(stmts[0].get())->query.get();
  } else {
    return Status::Invalid("Plan expects a retrieve statement");
  }
  Binder binder(&catalog_, &default_session_->ranges_);
  TDB_ASSIGN_OR_RETURN(BoundStatement bound, binder.BindRetrieve(retrieve));
  // Journal included so relations opened (and cached) while planning carry
  // the same hooks as ones opened while executing.
  ExecEnv exec = default_session_->MakeExecEnv(now());
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<PhysicalPlan> plan,
                       BuildPlan(*retrieve, bound, exec));
  return std::shared_ptr<const PhysicalPlan>(std::move(plan));
}

Result<std::string> Database::Explain(const std::string& text) {
  TDB_ASSIGN_OR_RETURN(auto plan, Plan(text));
  return plan->Describe();
}

}  // namespace tdb
