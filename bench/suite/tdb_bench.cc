// tdb_bench: runs one workload of the ChronoQuel benchmark suite in one
// process and prints its metrics as one JSON line.
//
//   tdb_bench --workload=NAME|all [--seed=42] [--seconds=10] [--scale=smoke]
//             [--trace=FILE] [--dir=DIR]
//
// Workloads (bench/suite/README.md says why each exists):
//   paper_cold     embedded Database with paper defaults; Q01-Q12 with every
//                  buffer dropped before each query (the paper's method)
//   analytic_warm  server, 1 client, a pool that holds the database;
//                  Q03, Q04, Q07-Q12 as text
//   temporal_oltp  server, 4 clients, a pool smaller than the data, sync
//                  durability; prepared point reads and single-key replaces
//   adhoc_join     server, 1 client; raw four-variable equi-joins with
//                  seeded literals
//
// Every workload is a closed loop: a client sends its next operation when
// the previous one has answered.  Set-up (database build, update rounds,
// server start, warm-up pass) runs 5 times and each is timed; the
// last set-up is then measured for --seconds, ending at a pass boundary.
// With --trace the second half of those seconds records spans around every
// 8th operation's calls into each layer, written to FILE as Chrome
// trace-event JSON.
//
// The server workloads keep their database root and unix socket under
// --dir (created if missing), addressed by relative paths after the
// process changes into it: a unix socket path is limited to 108 bytes.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/workload.h"
#include "core/database.h"
#include "core/plan_cache.h"
#include "net/client.h"
#include "net/server.h"
#include "quantile.h"
#include "tquel/parser.h"
#include "util/random.h"
#include "util/stringx.h"

namespace tdb {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// The paper's golden page-I/O table (tests/paper_metrics_test.cc).
struct GoldenRow {
  DbType type;
  int fillfactor;
  int uc;
  int qnum;
  uint64_t input_pages;
  uint64_t output_pages;
};
// clang-format off
const GoldenRow kGolden[] = {
#include "paper_metrics_golden.inc"
};
// clang-format on

constexpr int kTraceEvery = 8;
constexpr int kTuples = 1024;      // per relation of the paper's database
constexpr int kUpdateRounds = 15;  // the paper's largest update count
const char* const kWorkloads[] = {"paper_cold", "analytic_warm",
                                  "temporal_oltp", "adhoc_join"};

struct Config {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  int setups = 5;
  std::string trace_path;  // empty: no traced phase
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0 for an `op` span
  uint64_t op;      // id of the `op` span this span belongs to
  double start_us;  // since the phase started
  double dur_us;
  int tid;
};

/// One client thread's span recorder; never shared between threads.
class Tracer {
 public:
  Tracer(int tid, Clock::time_point epoch)
      : tid_(tid), epoch_(epoch), next_id_(uint64_t(tid + 1) << 40) {}

  void BeginOp() {
    op_ = ++next_id_;
    op_start_ = Clock::now();
  }
  void EndOp() { Push("op", op_, 0, op_start_, Clock::now()); }
  void Child(const char* name, Clock::time_point t0, Clock::time_point t1) {
    Push(name, ++next_id_, op_, t0, t1);
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  void Push(const char* name, uint64_t id, uint64_t parent,
            Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back(
        {name, id, parent, op_, Micros(t0 - epoch_), Micros(t1 - t0), tid_});
  }

  int tid_;
  Clock::time_point epoch_;
  uint64_t next_id_;
  uint64_t op_ = 0;
  Clock::time_point op_start_;
  std::vector<Span> spans_;
};

/// Calls f(), recording it as span `name` of the current op when traced.
template <typename F>
auto Timed(Tracer* tr, const char* name, F&& f) -> decltype(f()) {
  if (tr == nullptr) return f();
  const Clock::time_point t0 = Clock::now();
  auto result = f();
  tr->Child(name, t0, Clock::now());
  return result;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

uint64_t OpSeed(uint64_t seed, int client, uint64_t i, bool warm) {
  return (seed * 0x100000001B3ull) ^ (uint64_t(client) << 56) ^
         (warm ? uint64_t{1} << 55 : 0) ^ i;
}

/// Operation i of a loop over `queries`: every pass of queries.size()
/// operations runs each query once, in an order drawn from the seed.
int PassQuery(std::vector<int> queries, uint64_t seed, uint64_t i, bool warm) {
  const size_t n = queries.size();
  Random rng(OpSeed(seed, 0, i / n, warm));
  for (size_t k = n - 1; k > 0; --k) {
    std::swap(queries[k], queries[rng.Uniform(k + 1)]);
  }
  return queries[i % n];
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Closed-loop clients: threads, and connections for the server ones.
  virtual int clients() const = 0;
  /// Operations per pass, the unit of the end-to-end timings.  A phase
  /// ends only at a pass boundary, so counter averages cover whole passes.
  virtual uint64_t pass_ops() const { return 1; }
  virtual uint64_t warmup_ops() const = 0;
  /// Builds the database and starts whatever the workload runs against.
  virtual Status Build() = 0;
  /// Runs and checks operation i of client c; false on an error or a wrong
  /// result.  Sets *kind to the query number (paper workloads) or to
  /// kRead / kWrite.  With `tr` set, also times the operation's calls into
  /// each layer.
  virtual bool Step(int c, uint64_t i, bool warm, uint8_t* kind,
                    Tracer* tr) = 0;
  /// Checks made after the measured phase; one message per failure.
  virtual std::vector<std::string> FinalChecks() { return {}; }
  virtual Database* database() = 0;
  virtual bool kinds_are_queries() const { return false; }

  static constexpr uint8_t kRead = 0;
  static constexpr uint8_t kWrite = 1;
};

/// The paper's temporal benchmark database at update count 15.  It is one
/// fixed database, generated from seed 42 like every golden count (some of
/// which depend on the generated amounts and timestamps); --seed drives the
/// operation streams run against it instead.
Result<std::unique_ptr<BenchmarkDb>> BuildPaperDb(uint32_t page_size) {
  WorkloadConfig wc;
  wc.type = DbType::kTemporal;
  wc.fillfactor = 100;
  wc.ntuples = kTuples;
  wc.seed = 42;
  wc.page_size = page_size;
  TDB_ASSIGN_OR_RETURN(auto paper, BenchmarkDb::Create(wc));
  while (paper->update_count() < kUpdateRounds) {
    TDB_RETURN_NOT_OK(paper->UniformUpdateRound());
  }
  return paper;
}

// --- paper_cold -------------------------------------------------------------

class PaperCold : public Workload {
 public:
  explicit PaperCold(const Config& cfg) : cfg_(cfg) {}

  int clients() const override { return 1; }
  uint64_t pass_ops() const override { return 12; }
  uint64_t warmup_ops() const override { return 12; }
  bool kinds_are_queries() const override { return true; }
  Database* database() override { return paper_->db(); }

  Status Build() override {
    for (const GoldenRow& row : kGolden) {
      if (row.type == DbType::kTemporal && row.fillfactor == 100 &&
          row.uc == kUpdateRounds) {
        golden_[row.qnum] = row;
      }
    }
    TDB_ASSIGN_OR_RETURN(paper_, BuildPaperDb(0));
    for (int q = 1; q <= 12; ++q) text_[q] = paper_->QueryText(q);
    return Status::OK();
  }

  bool Step(int, uint64_t i, bool warm, uint8_t* kind, Tracer* tr) override {
    const int q = PassQuery({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, cfg_.seed,
                            i, warm);
    *kind = static_cast<uint8_t>(q);
    Database* db = paper_->db();
    if (!db->DropAllBuffers().ok()) return false;
    db->io()->ResetAll();
    auto result =
        Timed(tr, "core.execute", [&] { return db->Execute(text_[q]); });
    const IoCounters io = db->io()->Total();
    bool ok = result.ok() && io.TotalReads() == golden_[q].input_pages &&
              io.TotalWrites() == golden_[q].output_pages;
    if (tr != nullptr) {
      ok &= Timed(tr, "tquel.parse",
                  [&] { return Parser::ParseScript(text_[q]).ok(); });
      ok &= Timed(tr, "exec.plan", [&] { return db->Plan(text_[q]).ok(); });
    }
    return ok;
  }

 private:
  const Config& cfg_;
  std::unique_ptr<BenchmarkDb> paper_;
  std::map<int, GoldenRow> golden_;
  std::string text_[13];
};

// --- the server workloads ---------------------------------------------------

/// The production profile every server workload starts from.
DatabaseOptions Production(int pool_frames) {
  DatabaseOptions options;
  options.page_size = 4096;
  options.pool_frames = pool_frames;
  options.pool_file_cap = -1;
  options.plan_cache = true;
  options.metrics = true;
  return options;
}

/// An in-process net::Server on a unix socket, its clients, and for each
/// client an in-process Session on the same Database: the traced phase
/// runs an operation's statement through that Session too, to split the
/// wire round trip from execution.
class ServerWorkload : public Workload {
 public:
  ~ServerWorkload() override {
    clients_.clear();
    sessions_.clear();
    server_.reset();
    registry_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  Database* database() override { return db_; }

 protected:
  ServerWorkload(const Config& cfg, int setup, DatabaseOptions options)
      : cfg_(cfg),
        root_("root" + std::to_string(setup)),
        socket_("srv" + std::to_string(setup) + ".sock"),
        options_(options) {}

  Status StartServer(const std::string& db_name) {
    TDB_RETURN_NOT_OK(Env::Default()->CreateDirIfMissing(root_));
    registry_ = std::make_unique<net::DatabaseRegistry>(root_, options_);
    net::ServerOptions server_options;
    server_options.unix_path = socket_;
    server_ = std::make_unique<net::Server>(registry_.get(), server_options);
    TDB_RETURN_NOT_OK(server_->Start());
    TDB_ASSIGN_OR_RETURN(db_, registry_->GetOrOpen(db_name));
    db_name_ = db_name;
    return Status::OK();
  }

  /// Opens every client connection and its in-process twin Session, and
  /// runs `script` (range declarations) on each and on the default session
  /// Database::Plan binds against.
  Status ConnectClients(const std::string& script) {
    TDB_RETURN_NOT_OK(db_->ExecuteScript(script).status());
    for (int c = 0; c < clients(); ++c) {
      TDB_ASSIGN_OR_RETURN(auto client,
                           net::Client::ConnectUnix(socket_, db_name_));
      TDB_RETURN_NOT_OK(client->Execute(script).status());
      clients_.push_back(std::move(client));
      sessions_.push_back(db_->CreateSession());
      TDB_RETURN_NOT_OK(sessions_.back()->ExecuteScript(script).status());
    }
    return Status::OK();
  }

  /// Copies a database built in memory into the server root, so the server
  /// opens it from disk like any other.
  Status CopyToRoot(BenchmarkDb* paper, const std::string& db_name) {
    TDB_RETURN_NOT_OK(paper->db()->DropAllBuffers());
    Env* mem = paper->db()->env();
    Env* disk = Env::Default();
    const std::string dst = root_ + "/" + db_name;
    TDB_RETURN_NOT_OK(disk->CreateDirIfMissing(root_));
    TDB_RETURN_NOT_OK(disk->CreateDirIfMissing(dst));
    TDB_ASSIGN_OR_RETURN(auto names, mem->ListDir(paper->db()->dir()));
    for (const std::string& name : names) {
      TDB_ASSIGN_OR_RETURN(
          std::string bytes,
          mem->ReadFileToString(paper->db()->dir() + "/" + name));
      TDB_RETURN_NOT_OK(disk->WriteStringToFile(dst + "/" + name, bytes));
    }
    return Status::OK();
  }

  /// The traced twins of one operation whose literal text is `text`:
  /// parse, plan (reads only), in-process execution via `local` (reads
  /// only; null for writes, which must not run twice), and a ping.
  bool Twins(int c, Tracer* tr, const std::string& text,
             const std::function<bool()>& local) {
    bool ok = Timed(tr, "tquel.parse",
                    [&] { return Parser::ParseScript(text).ok(); });
    if (local) {
      {
        // Plan runs on the Database's one default session.
        std::lock_guard<std::mutex> lock(plan_mu_);
        ok &= Timed(tr, "exec.plan", [&] { return db_->Plan(text).ok(); });
      }
      ok &= Timed(tr, "core.execute", local);
    }
    ok &= Timed(tr, "net.ping", [&] { return clients_[c]->Ping().ok(); });
    return ok;
  }

  const Config& cfg_;
  std::string root_;
  std::string socket_;
  DatabaseOptions options_;
  std::string db_name_;
  std::unique_ptr<net::DatabaseRegistry> registry_;
  std::unique_ptr<net::Server> server_;
  Database* db_ = nullptr;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::mutex plan_mu_;
};

constexpr const char* kPaperRanges =
    "range of h is bench_h\nrange of i is bench_i";

// --- analytic_warm ----------------------------------------------------------

class AnalyticWarm : public ServerWorkload {
 public:
  AnalyticWarm(const Config& cfg, int setup)
      : ServerWorkload(cfg, setup, [] {
          DatabaseOptions options = Production(4096);
          options.exec_threads = static_cast<int>(
              std::max(1u, std::thread::hardware_concurrency()));
          return options;
        }()) {}

  int clients() const override { return 1; }
  uint64_t pass_ops() const override { return 8; }
  uint64_t warmup_ops() const override { return 8; }
  bool kinds_are_queries() const override { return true; }

  Status Build() override {
    // Expected row counts come from paper mode (1 KiB pages, one private
    // frame per relation) on the same generated data.
    {
      TDB_ASSIGN_OR_RETURN(auto paper, BuildPaperDb(0));
      for (int q : kQueries) {
        text_[q] = paper->QueryText(q);
        TDB_ASSIGN_OR_RETURN(ResultSet rows, paper->db()->Query(text_[q]));
        expected_rows_[q] = rows.num_rows();
      }
    }
    TDB_ASSIGN_OR_RETURN(auto served, BuildPaperDb(4096));
    TDB_RETURN_NOT_OK(CopyToRoot(served.get(), "paper"));
    served.reset();
    TDB_RETURN_NOT_OK(StartServer("paper"));
    return ConnectClients(kPaperRanges);
  }

  bool Step(int c, uint64_t i, bool warm, uint8_t* kind,
            Tracer* tr) override {
    const int q = PassQuery({std::begin(kQueries), std::end(kQueries)},
                            cfg_.seed, i, warm);
    *kind = static_cast<uint8_t>(q);
    const std::string& text = text_[q];
    auto result =
        Timed(tr, "net.request", [&] { return clients_[c]->Execute(text); });
    bool ok = result.ok() && result->size() == 1 &&
              result->back().rows.size() == expected_rows_[q];
    if (tr != nullptr) {
      ok &= Twins(c, tr, text, [&] {
        auto local = sessions_[c]->Query(text);
        return local.ok() && local->num_rows() == expected_rows_[q];
      });
    }
    return ok;
  }

 private:
  static constexpr int kQueries[] = {3, 4, 7, 8, 9, 10, 11, 12};
  std::string text_[13];
  size_t expected_rows_[13] = {};
};

// --- temporal_oltp ----------------------------------------------------------

class TemporalOltp : public ServerWorkload {
 public:
  TemporalOltp(const Config& cfg, int setup)
      : ServerWorkload(cfg, setup, [] {
          DatabaseOptions options = Production(256);
          options.durability = DurabilityMode::kJournalSync;
          return options;
        }()) {}

  int clients() const override { return 4; }
  uint64_t warmup_ops() const override { return 256; }

  Status Build() override {
    TDB_ASSIGN_OR_RETURN(auto served, BuildPaperDb(4096));
    TDB_RETURN_NOT_OK(CopyToRoot(served.get(), "paper"));
    served.reset();
    TDB_RETURN_NOT_OK(StartServer("paper"));
    TDB_RETURN_NOT_OK(ConnectClients(kPaperRanges));
    for (int c = 0; c < clients(); ++c) {
      for (int op = 0; op < 3; ++op) {
        for (int rel = 0; rel < 2; ++rel) {
          const std::string text = Text(op, rel, "$1");
          const std::string name = Name(op, rel);
          TDB_RETURN_NOT_OK(clients_[c]->Prepare(name, text).status());
          TDB_RETURN_NOT_OK(sessions_[c]->Prepare(name, text).status());
        }
      }
    }
    replaced_.assign(clients(), std::vector<int>(2 * kTuples, 0));
    return Status::OK();
  }

  bool Step(int c, uint64_t i, bool warm, uint8_t* kind,
            Tracer* tr) override {
    // 50% current-state point reads, 30% version-history point reads, 20%
    // single-key replaces; the warm-up pass only reads.
    Random rng(OpSeed(cfg_.seed, c, i, warm));
    const uint64_t pick = rng.Uniform(100);
    const int rel = static_cast<int>(rng.Uniform(2));
    const int key = static_cast<int>(rng.Uniform(kTuples));
    int op = pick < 50 ? kCurrent : pick < 80 ? kHistory : kReplace;
    if (warm && op == kReplace) op = kCurrent;
    *kind = op == kReplace ? kWrite : kRead;
    const std::vector<Value> args = {Value::Int4(key)};
    auto result = Timed(tr, "net.request", [&] {
      return clients_[c]->ExecutePrepared(Name(op, rel), args);
    });
    bool ok = result.ok();
    if (ok && op == kReplace) {
      ok = result->affected == 1;
      if (ok) ++replaced_[c][rel * kTuples + key];
    } else if (ok) {
      ok = CheckRead(op, key, result->rows);
    }
    if (tr != nullptr) {
      std::function<bool()> local;
      if (op != kReplace) {
        local = [&] {
          auto r = sessions_[c]->ExecutePrepared(Name(op, rel), args);
          return r.ok() && CheckRead(op, key, r->result.rows);
        };
      }
      ok &= Twins(c, tr, Text(op, rel, std::to_string(key)), local);
    }
    return ok;
  }

  /// Every key's current seq is 15 (the update rounds) plus the replaces
  /// it received in the seeded streams.
  std::vector<std::string> FinalChecks() override {
    std::vector<std::string> failures;
    for (int rel = 0; rel < 2; ++rel) {
      const std::string var = rel == 0 ? "h" : "i";
      auto result = clients_[0]->Execute("retrieve (" + var + ".id, " + var +
                                         ".seq) when " + var +
                                         " overlap \"now\"");
      if (!result.ok() || result->size() != 1) {
        failures.push_back(
            "temporal_oltp.final_seq: current-state read failed");
        continue;
      }
      const std::vector<Row>& rows = result->back().rows;
      int wrong = rows.size() == size_t(kTuples) ? 0 : 1;
      for (const Row& row : rows) {
        const int64_t id = row[0].AsInt();
        if (id < 0 || id >= kTuples) {
          ++wrong;
          continue;
        }
        int64_t want = kUpdateRounds;
        for (const auto& counts : replaced_) want += counts[rel * kTuples + id];
        if (row[1].AsInt() != want) ++wrong;
      }
      if (wrong != 0) {
        failures.push_back(StrPrintf(
            "temporal_oltp.final_seq: bench_%s has %d keys whose seq is not "
            "%d plus their replaces",
            var.c_str(), wrong, kUpdateRounds));
      }
    }
    return failures;
  }

 private:
  enum { kCurrent = 0, kHistory = 1, kReplace = 2 };

  static std::string Name(int op, int rel) {
    static const char* const kNames[3][2] = {
        {"cur_h", "cur_i"}, {"hist_h", "hist_i"}, {"upd_h", "upd_i"}};
    return kNames[op][rel];
  }

  static std::string Text(int op, int rel, const std::string& key) {
    const std::string v = rel == 0 ? "h" : "i";
    switch (op) {
      case kCurrent:
        return "retrieve (" + v + ".id, " + v + ".seq) where " + v +
               ".id = " + key + " when " + v + " overlap \"now\"";
      case kHistory:
        return "retrieve (" + v + ".id, " + v + ".seq) where " + v +
               ".id = " + key;
      default:
        return "replace " + v + " (seq = " + v + ".seq + 1) where " + v +
               ".id = " + key;
    }
  }

  /// A current read returns the key's one live version; a history read
  /// returns at least every version the update rounds made.
  bool CheckRead(int op, int key, const std::vector<Row>& rows) const {
    if (op == kCurrent && rows.size() != 1) return false;
    if (op == kHistory && rows.size() <= size_t(kUpdateRounds)) {
      return false;
    }
    for (const Row& row : rows) {
      if (row[0].AsInt() != key) return false;
    }
    return op != kCurrent || rows[0][1].AsInt() >= kUpdateRounds;
  }

  /// replaced_[client][rel * kTuples + key]: acknowledged replaces.
  std::vector<std::vector<int>> replaced_;
};

// --- adhoc_join -------------------------------------------------------------

class AdhocJoin : public ServerWorkload {
 public:
  AdhocJoin(const Config& cfg, int setup)
      : ServerWorkload(cfg, setup, Production(4096)) {}

  // One client, not the four first planned: a statement is ~0.1 ms of
  // thread wakeups and CPU, which neighbours on a shared host disturb.  Side
  // by side over ten 25-second runs, one client spread by 15-17% and two by
  // 21-22%.  temporal_oltp supplies the concurrent sessions.
  int clients() const override { return 1; }
  uint64_t warmup_ops() const override { return 64; }

  Status Build() override {
    // Four relations of 16 rows with values in [0, 64).
    Random rng(cfg_.seed ^ 0xAD0C);
    std::string setup;
    for (int r = 0; r < kRelations; ++r) {
      setup += StrPrintf("create acct%d (v = i4)\n", r);
      for (int k = 0; k < 16; ++k) {
        const int v = static_cast<int>(rng.Uniform(64));
        ++count_[r][v];
        setup += StrPrintf("append to acct%d (v = %d)\n", r, v);
      }
    }
    TDB_RETURN_NOT_OK(StartServer("adhoc"));
    {
      TDB_ASSIGN_OR_RETURN(auto client,
                           net::Client::ConnectUnix(socket_, "adhoc"));
      TDB_RETURN_NOT_OK(client->Execute(setup).status());
    }
    std::string ranges;
    for (int r = 0; r < kRelations; ++r) {
      for (const char* var : {"a", "b", "c", "d"}) {
        ranges += StrPrintf("range of %s%d is acct%d\n", var, r, r);
      }
    }
    return ConnectClients(ranges);
  }

  bool Step(int c, uint64_t i, bool warm, uint8_t* kind,
            Tracer* tr) override {
    // The load_server --mode=raw join: a, c range over a seeded relation
    // and b, d over its neighbour, under a seeded range on a.v.  Its 16384
    // distinct texts overflow the 256-entry plan cache.
    Random rng(OpSeed(cfg_.seed, c, i, warm));
    const int r = static_cast<int>(rng.Uniform(kRelations));
    const int n = (r + 1) % kRelations;
    const int lo = static_cast<int>(rng.Uniform(64));
    const int hi = lo + static_cast<int>(rng.Uniform(64));
    const std::string av = StrPrintf("a%d.v", r), bv = StrPrintf("b%d.v", n),
                      cv = StrPrintf("c%d.v", r), dv = StrPrintf("d%d.v", n);
    const std::string text =
        "retrieve (x = " + av + ", y = " + bv + ", z = " + cv + ", w = " + dv +
        ") where " + av + " = " + bv + " and " + bv + " = " + cv + " and " +
        cv + " = " + dv + " and " + av + " >= " + std::to_string(lo) +
        " and " + av + " <= " + std::to_string(hi);
    size_t expected = 0;
    for (int v = lo; v <= std::min(hi, 63); ++v) {
      const size_t a = count_[r][v], b = count_[n][v];
      expected += a * a * b * b;
    }
    *kind = kRead;
    auto result =
        Timed(tr, "net.request", [&] { return clients_[c]->Execute(text); });
    bool ok = result.ok() && result->size() == 1 &&
              result->back().rows.size() == expected;
    if (tr != nullptr) {
      ok &= Twins(c, tr, text, [&] {
        auto local = sessions_[c]->Query(text);
        return local.ok() && local->num_rows() == expected;
      });
    }
    return ok;
  }

 private:
  static constexpr int kRelations = 4;
  size_t count_[kRelations][64] = {};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Config& cfg, int setup) {
  if (name == "paper_cold") return std::make_unique<PaperCold>(cfg);
  if (name == "analytic_warm") {
    return std::make_unique<AnalyticWarm>(cfg, setup);
  }
  if (name == "temporal_oltp") {
    return std::make_unique<TemporalOltp>(cfg, setup);
  }
  if (name == "adhoc_join") return std::make_unique<AdhocJoin>(cfg, setup);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct OpSample {
  float us;
  uint8_t kind;
};

/// Latency samples of the measured phase, one fixed-size buffer per client,
/// allocated and written before any set-up: peak_rss_mb must not grow with
/// the number of operations a faster build completes.  Operations beyond
/// a buffer's capacity are counted but not sampled.
class SampleArena {
 public:
  static constexpr int kMaxClients = 4;
  static constexpr size_t kPerClient = size_t{1} << 18;

  SampleArena()
      : buffers_(kMaxClients,
                 std::vector<OpSample>(kPerClient, OpSample{-1.0f, 0xff})),
        used_(kMaxClients, 0) {}

  void Clear() { std::fill(used_.begin(), used_.end(), 0); }
  void Add(int c, OpSample sample) {
    if (used_[c] < kPerClient) buffers_[c][used_[c]++] = sample;
  }
  /// Latencies in ms of the samples whose kind passes `keep`.
  std::vector<double> Ms(const std::function<bool(uint8_t)>& keep) const {
    std::vector<double> ms;
    for (int c = 0; c < kMaxClients; ++c) {
      for (size_t k = 0; k < used_[c]; ++k) {
        if (keep(buffers_[c][k].kind)) ms.push_back(buffers_[c][k].us / 1e3);
      }
    }
    return ms;
  }
  /// Latencies in ms of whole passes: pass_ops consecutive operations of
  /// one client.
  std::vector<double> PassMs(uint64_t pass_ops) const {
    std::vector<double> ms;
    for (int c = 0; c < kMaxClients; ++c) {
      for (size_t k = 0; k + pass_ops <= used_[c]; k += pass_ops) {
        double us = 0;
        for (size_t j = k; j < k + pass_ops; ++j) us += buffers_[c][j].us;
        ms.push_back(us / 1e3);
      }
    }
    return ms;
  }

 private:
  std::vector<std::vector<OpSample>> buffers_;
  std::vector<size_t> used_;
};

struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  /// Operations completed in each whole second of the phase.
  std::vector<uint64_t> per_second;
  std::vector<Span> spans;
};

/// Runs every client's loop for `seconds` (ending at a pass boundary), or
/// for exactly `fixed_ops` operations per client when that is non-zero.
/// Latencies of successful operations go to `samples` when it is set.
Phase RunPhase(Workload& w, double seconds, uint64_t fixed_ops, bool warm,
               bool traced, SampleArena* samples) {
  const int n = w.clients();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t whole_seconds = static_cast<size_t>(seconds);
  if (samples != nullptr) samples->Clear();
  std::vector<Phase> per_client(n);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int c = 0; c < n; ++c) {
    tracers.push_back(traced ? std::make_unique<Tracer>(c, start) : nullptr);
    per_client[c].per_second.assign(whole_seconds, 0);
  }
  auto loop = [&](int c) {
    Phase& out = per_client[c];
    for (uint64_t i = 0; fixed_ops == 0 || i < fixed_ops; ++i) {
      if (fixed_ops == 0 && i % w.pass_ops() == 0 &&
          Clock::now() >= deadline) {
        break;
      }
      Tracer* tr = tracers[c] != nullptr && i % kTraceEvery == 0
                       ? tracers[c].get()
                       : nullptr;
      if (tr != nullptr) tr->BeginOp();
      uint8_t kind = 0;
      const Clock::time_point t0 = Clock::now();
      const bool ok = w.Step(c, i, warm, &kind, tr);
      const Clock::time_point t1 = Clock::now();
      if (tr != nullptr) tr->EndOp();
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        continue;
      }
      ++out.completed;
      if (samples != nullptr) {
        samples->Add(c, {static_cast<float>(Micros(t1 - t0)), kind});
      }
      const size_t second = static_cast<size_t>(Seconds(t1 - start));
      if (second < whole_seconds) ++out.per_second[second];
    }
  };
  if (n == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) threads.emplace_back(loop, c);
    for (std::thread& t : threads) t.join();
  }
  Phase all;
  all.per_second.assign(whole_seconds, 0);
  for (int c = 0; c < n; ++c) {
    const Phase& p = per_client[c];
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.completed += p.completed;
    for (size_t s = 0; s < whole_seconds; ++s) {
      all.per_second[s] += p.per_second[s];
    }
    if (tracers[c] != nullptr) {
      const auto& spans = tracers[c]->spans();
      all.spans.insert(all.spans.end(), spans.begin(), spans.end());
    }
  }
  return all;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  return SampleQuantiles(std::move(v))(0.5);
}

// End-to-end timings count passes: a pass is the whole query set of a paper
// workload and one statement otherwise.  Neighbours on a shared host slow
// stretches of a run by up to 1.5x, and a run can fall wholly inside such a
// stretch, so the registered timings read the run's least-slowed part: the
// best whole second for throughput, the 10th percentile for latency.  The
// medians are reported beside them.  README.md gives the spreads of each.

/// Passes per second: the median over the phase's whole seconds, and the
/// best of them.  Phases shorter than a second report their mean for both.
std::pair<double, double> Throughput(const Phase& phase, uint64_t pass_ops,
                                     double seconds) {
  const double per_pass = static_cast<double>(pass_ops);
  if (phase.per_second.empty()) {
    const double mean =
        static_cast<double>(phase.completed) / seconds / per_pass;
    return {mean, mean};
  }
  const SampleQuantiles slices(
      {phase.per_second.begin(), phase.per_second.end()});
  return {slices(0.5) / per_pass, slices(1.0) / per_pass};
}

void AddPassLatency(std::vector<Metric>* out, const SampleArena& samples,
                    uint64_t pass_ops) {
  const SampleQuantiles q(samples.PassMs(pass_ops));
  out->push_back({"latency_p10_ms", q(0.10), "ms"});
  out->push_back({"latency_p50_ms", q(0.50), "ms"});
  out->push_back({"latency_p99_ms", q(0.99), "ms"});
  out->push_back({"latency_samples", static_cast<double>(q.size()), "count"});
}

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const SampleArena& samples,
                const std::function<bool(uint8_t)>& keep) {
  const SampleQuantiles q(samples.Ms(keep));
  out->push_back({prefix + "_p50_ms", q(0.50), "ms"});
  out->push_back({prefix + "_p99_ms", q(0.99), "ms"});
  out->push_back({prefix + "_samples", static_cast<double>(q.size()), "count"});
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer counters: deltas of Database::Snapshot() over the phase.
void AddCounters(std::vector<Metric>* out, const obs::MetricsSnapshot& before,
                 const obs::MetricsSnapshot& after, double ops) {
  auto sum = [&](const char* prefix, const char* suffix) {
    return static_cast<double>(after.SumCounters(prefix, suffix) -
                               before.SumCounters(prefix, suffix));
  };
  auto one = [&](const char* name) { return sum(name, ""); };
  out->push_back(
      {"tquel.parses_per_op", Ratio(one("sql.parses"), ops), "count"});
  out->push_back(
      {"exec.plan_builds_per_op", Ratio(one("plan.builds"), ops), "count"});
  const double hits = one("plancache.hits");
  out->push_back({"core.plan_cache_hit_ratio",
                  Ratio(hits, hits + one("plancache.misses")), "ratio"});
  out->push_back({"storage.pages_read_per_op",
                  Ratio(sum("pager.", ".read_pages"), ops), "pages"});
  out->push_back({"storage.pages_written_per_op",
                  Ratio(sum("pager.", ".write_pages"), ops), "pages"});
  out->push_back({"storage.pool_hit_ratio",
                  Ratio(sum("bufpool.", ".hits"), sum("bufpool.", ".requests")),
                  "ratio"});
  out->push_back({"storage.pool_evictions_per_op",
                  Ratio(sum("bufpool.", ".evictions"), ops), "count"});
  const double commits = one("journal.commits");
  out->push_back({"storage.journal_commits_per_sync",
                  Ratio(commits, one("journal.group_syncs")), "count"});
  out->push_back({"storage.journal_bytes_per_commit",
                  Ratio(one("journal.pre_image_bytes"), commits), "bytes"});
}

/// Layer times from the traced phase.  Per traced operation: parse is the
/// tquel.parse span; plan is exec.plan minus parse (Plan parses first);
/// execute is core.execute minus exec.plan; net overhead is net.request
/// minus core.execute; ping is net.ping.  Reported as medians.
void AddSpanTimes(std::vector<Metric>* out, const std::vector<Span>& spans) {
  std::map<uint64_t, std::map<std::string, double>> by_op;
  for (const Span& s : spans) {
    if (s.parent != 0) by_op[s.op][s.name] = s.dur_us;
  }
  std::vector<double> ping, overhead, parse, plan, execute;
  for (auto& [op, d] : by_op) {
    auto has = [&](const char* name) { return d.count(name) != 0; };
    if (has("net.ping")) ping.push_back(d["net.ping"]);
    if (has("tquel.parse")) parse.push_back(d["tquel.parse"]);
    if (has("exec.plan") && has("tquel.parse")) {
      plan.push_back(d["exec.plan"] - d["tquel.parse"]);
    }
    if (has("core.execute") && has("exec.plan")) {
      execute.push_back(d["core.execute"] - d["exec.plan"]);
    }
    if (has("net.request") && has("core.execute")) {
      overhead.push_back(d["net.request"] - d["core.execute"]);
    }
  }
  out->push_back({"net.ping_p50_us", Median(ping), "us"});
  out->push_back({"net.overhead_p50_us", Median(overhead), "us"});
  out->push_back({"tquel.parse_p50_us", Median(parse), "us"});
  out->push_back({"exec.plan_p50_us", Median(plan), "us"});
  out->push_back({"core.execute_p50_us", Median(execute), "us"});
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    out += StrPrintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%llu,\"op\":%llu,\"parent\":%llu}}%s\n",
        s.name, s.tid, s.start_us, s.dur_us,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.op),
        static_cast<unsigned long long>(s.parent),
        k + 1 < spans.size() ? "," : "");
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return Env::Default()->WriteStringToFile(path, out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + "\"";
}

/// Runs one workload end to end and prints its JSON line; true if every
/// operation and check passed.
bool RunWorkload(const std::string& name, const Config& cfg,
                 SampleArena* samples) {
  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < cfg.setups && failures.empty(); ++k) {
    w.reset();
    GlobalPlanCache().Clear();
    const Clock::time_point t0 = Clock::now();
    w = MakeWorkload(name, cfg, k);
    Status built = w->Build();
    if (!built.ok()) {
      failures.push_back(name + ".setup: " + built.ToString());
      break;
    }
    Phase warm =
        RunPhase(*w, 0, w->warmup_ops(), /*warm=*/true, false, nullptr);
    setup_s.push_back(Seconds(Clock::now() - t0));
    attempted += warm.attempted;
    failed += warm.failed;
  }

  std::vector<Metric> m;
  if (failures.empty()) {
    // With --trace the measured time is split: the first half, untraced,
    // gives the counters and the baseline throughput; the second gives the
    // spans and the traced throughput.
    const bool traced = !cfg.trace_path.empty();
    const double seconds = traced ? cfg.seconds / 2 : cfg.seconds;
    const obs::MetricsSnapshot before = w->database()->Snapshot();
    Phase run = RunPhase(*w, seconds, 0, false, false, samples);
    const obs::MetricsSnapshot after = w->database()->Snapshot();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    attempted += run.attempted;
    failed += run.failed;

    const auto [tput, peak] = Throughput(run, w->pass_ops(), seconds);
    m.push_back({"throughput_ops_s", tput, "ops/s"});
    m.push_back({"peak_throughput_ops_s", peak, "ops/s"});
    AddPassLatency(&m, *samples, w->pass_ops());
    auto is_write = [&](uint8_t k) {
      return !w->kinds_are_queries() && k == Workload::kWrite;
    };
    if (!samples->Ms(is_write).empty()) {
      AddLatency(&m, "read", *samples, [&](uint8_t k) { return !is_write(k); });
      AddLatency(&m, "write", *samples, is_write);
    }
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MB"});
    AddCounters(&m, before, after, static_cast<double>(run.completed));
    const bool queries = w->kinds_are_queries();
    for (int q = 1; q <= 12; ++q) {
      auto is_q = [&](uint8_t k) { return queries && k == q; };
      m.push_back({StrPrintf("exec.q%02d_p50_ms", q), Median(samples->Ms(is_q)),
                   "ms"});
    }

    if (traced) {
      Phase spans = RunPhase(*w, seconds, 0, false, true, nullptr);
      attempted += spans.attempted;
      failed += spans.failed;
      AddSpanTimes(&m, spans.spans);
      m.push_back({"trace_overhead_pct",
                   100.0 * Ratio(peak - Throughput(spans, w->pass_ops(),
                                                   seconds).second,
                                 peak),
                   "%"});
      Status written = WriteChromeTrace(cfg.trace_path, spans.spans);
      if (!written.ok()) {
        failures.push_back(name + ".trace: " + written.ToString());
      }
    }
    for (std::string& f : w->FinalChecks()) failures.push_back(std::move(f));
  }
  w.reset();
  if (failed != 0) {
    failures.push_back(StrPrintf("%s.operations: %llu of %llu failed or "
                                 "returned a wrong result",
                                 name.c_str(),
                                 static_cast<unsigned long long>(failed),
                                 static_cast<unsigned long long>(attempted)));
  }
  m.push_back(
      {"error_rate", Ratio(double(failed), double(attempted)), "ratio"});

  std::string out =
      "{\"workload\":" + JsonString(name) +
      StrPrintf(",\"seed\":%llu,\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"failures\":[",
                static_cast<unsigned long long>(cfg.seed),
                failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  for (size_t k = 0; k < failures.size(); ++k) {
    out += (k ? "," : "") + JsonString(failures[k]);
  }
  out += "],\"metrics\":{";
  for (size_t k = 0; k < m.size(); ++k) {
    out += StrPrintf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                     k ? "," : "", m[k].name.c_str(), m[k].value,
                     m[k].unit.c_str());
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
  }
  return failures.empty();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=paper_cold|analytic_warm|temporal_oltp|"
               "adhoc_join|all\n"
               "          [--seed=N] [--seconds=S] [--scale=smoke]\n"
               "          [--trace=FILE] [--dir=DIR]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  std::string dir = ".";
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (key == "--scale" && value == "smoke") {
      // The paper-scale database and every check, measured only briefly.
      cfg.seconds = 0.5;
      cfg.setups = 1;
    } else if (key == "--trace") {
      cfg.trace_path = std::filesystem::absolute(value).string();
    } else if (key == "--dir") {
      dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  std::vector<std::string> names;
  if (cfg.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                       cfg.workload) != std::end(kWorkloads)) {
    names.push_back(cfg.workload);
  } else {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || ::chdir(dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot use --dir=%s\n", dir.c_str());
    return 2;
  }
  SampleArena samples;
  bool ok = true;
  for (const std::string& name : names) {
    Config one = cfg;
    if (names.size() > 1 && !cfg.trace_path.empty()) {
      one.trace_path = cfg.trace_path + "." + name + ".json";
    }
    ok &= RunWorkload(name, one, &samples);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tdb

int main(int argc, char** argv) { return tdb::bench::Main(argc, argv); }
