// Closed-loop load generator for the tquel server: N client threads, each
// with its own connection and server-side Session, issue a mixed TQuel
// read/write workload as fast as their round-trips allow.  Reports
// throughput and latency percentiles per client count as JSON on stdout
// (scripts/make_bench_server.py merges the sweeps into BENCH_server.json).
//
//   ./load_server [--durability=off|journal|sync] [--clients=1,2,4,8]
//                 [--seconds=2] [--root=DIR] [--read-pct=80]
//                 [--mode=count|raw|prepared] [--server=thread|epoll]
//                 [--plan-cache]
//
// The server runs in-process over a unix socket, so measured latency is
// the full client/server stack minus network distance: wire codec, socket
// round-trip, session locking, MVCC pinning, journaling, group commit.
// Each client appends to its own relation (so writers overlap and group
// commit has something to share) and reads a random client's relation (so
// reads cross sessions).  The workload is deterministic per thread: an
// LCG seeded by the client index picks reads vs writes.
//
// Workload modes:
//   count    — the durability sweep's historical mix: aggregate reads
//              (count) and literal appends, all as script text.
//   raw      — parameterizable statements (range predicate reads, value
//              appends) shipped as full text every time: every round trip
//              parses, binds, and plans.
//   prepared — the identical statements prepared once per connection and
//              executed by name with only the argument values on the
//              wire (kPrepare / kExecPrepared).  The raw-vs-prepared gap
//              is the parse+plan share of the round trip; with
//              --plan-cache the server also skips planning on raw text.
//
// Latency is recorded into an obs::Histogram (log2 buckets) and the
// percentiles come from HistogramSnapshot::Quantile — the same machinery
// the server's own metrics use, so bench numbers and server metrics are
// directly comparable (at power-of-two resolution).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace {

using tdb::DatabaseOptions;
using tdb::DurabilityMode;
using tdb::Value;
using tdb::net::Client;
using tdb::net::DatabaseRegistry;
using tdb::net::Server;
using tdb::net::ServerOptions;

void Die(const tdb::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

tdb::obs::HistogramSnapshot SnapshotOf(const tdb::obs::Histogram& h) {
  tdb::obs::HistogramSnapshot s;
  s.count = h.count();
  s.sum = h.sum();
  for (int i = 0; i < tdb::obs::Histogram::kNumBuckets; ++i) {
    s.buckets.push_back(h.bucket(i));
  }
  while (!s.buckets.empty() && s.buckets.back() == 0) s.buckets.pop_back();
  return s;
}

struct CellResult {
  int clients = 0;
  uint64_t ops = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  double seconds = 0;
  double p50 = 0, p95 = 0, p99 = 0, max = 0;  // milliseconds
  double mean = 0;
  uint64_t journal_commits = 0;
  uint64_t journal_group_syncs = 0;
  // Engine-side work counters for the cell (delta of the database's
  // metrics registry): how many statements were parsed and how many plans
  // were built server-side — the savings prepared statements and the plan
  // cache exist to deliver.
  uint64_t parses = 0;
  uint64_t plan_builds = 0;
  uint64_t plancache_hits = 0;
  uint64_t plancache_misses = 0;
};

struct LoadOptions {
  DurabilityMode durability = DurabilityMode::kOff;
  std::vector<int> client_counts = {1, 2, 4, 8};
  double seconds = 2.0;
  int read_pct = 80;
  /// Group-commit window (see DatabaseOptions::group_commit_window_micros).
  /// Batching only happens when commits land within one window of each
  /// other, so demonstrating the fsync sharing on fast storage (where the
  /// fsync itself is near-free) needs a window wider than one serialized
  /// write statement; -1 keeps the database default.
  int group_window_us = -1;
  std::string mode = "count";  // count | raw | prepared
  bool epoll = false;
  bool plan_cache = false;
  std::string root;
};

/// One measurement cell: `clients` closed-loop clients against a fresh
/// database for `opts.seconds`.
CellResult RunCell(const LoadOptions& opts, const std::string& socket_path,
                   DatabaseRegistry* registry, int clients) {
  const std::string db_name = "cell" + std::to_string(clients);
  // Schema setup outside the measured window.
  {
    auto setup = Client::ConnectUnix(socket_path, db_name);
    Die(setup.status(), "setup connect");
    std::string script;
    for (int c = 0; c < clients; ++c) {
      if (c > 0) script += ";";
      script += "create acct" + std::to_string(c) + " (v = i4)";
    }
    Die((*setup)->Execute(script).status(), "setup schema");
  }
  auto db = registry->GetOrOpen(db_name);
  Die(db.status(), "registry open");
  const auto counters_before = (*db)->Snapshot().counters;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  tdb::obs::Histogram latency_us;  // shared: Record is lock-free
  std::vector<std::uint64_t> reads(clients, 0), writes(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const double t0 = NowSeconds();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::ConnectUnix(socket_path, db_name);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Four range variables per relation (a<r>..d<r>) so the join below
      // can pair relations freely, including one with itself.
      std::string ranges;
      for (int r = 0; r < clients; ++r) {
        if (r > 0) ranges += ";";
        ranges += "range of a" + std::to_string(r) + " is acct" +
                  std::to_string(r);
        ranges += ";range of b" + std::to_string(r) + " is acct" +
                  std::to_string(r);
        ranges += ";range of c" + std::to_string(r) + " is acct" +
                  std::to_string(r);
        ranges += ";range of d" + std::to_string(r) + " is acct" +
                  std::to_string(r);
      }
      if (!(*client)->Execute(ranges).ok()) {
        failures.fetch_add(1);
        return;
      }
      // The raw/prepared read: a four-variable equi-join of this client's
      // relation with its neighbor's under a parameterized range predicate
      // — enough statement for parsing, binding, and cost-based join
      // planning (order enumeration over four variables) to be a real
      // share of the round trip.  That share is exactly what prepared
      // execution and the plan cache delete.
      const std::string av = "a" + std::to_string(c) + ".v";
      const std::string bv = "b" + std::to_string((c + 1) % clients) + ".v";
      const std::string cv = "c" + std::to_string(c) + ".v";
      const std::string dv = "d" + std::to_string((c + 1) % clients) + ".v";
      const std::string join_read = "retrieve (x = " + av + ", y = " + bv +
                                    ", z = " + cv + ", w = " + dv +
                                    ") where " + av + " = " + bv + " and " +
                                    bv + " = " + cv + " and " + cv + " = " +
                                    dv + " and " + av;
      // Prepared mode: the join read and the append each prepared once;
      // the loop ships only argument values.
      if (opts.mode == "prepared") {
        auto p = (*client)->Prepare("rd", join_read + " >= $1 and " + av +
                                              " <= $2");
        if (p.ok()) {
          p = (*client)->Prepare(
              "wr", "append to acct" + std::to_string(c) + " (v = $1)");
        }
        if (!p.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      uint64_t rng = 0x9E3779B97F4A7C15ull * (c + 1);
      int seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const bool read =
            static_cast<int>((rng >> 33) % 100) < opts.read_pct;
        const int target = static_cast<int>((rng >> 13) % clients);
        const int lo = static_cast<int>((rng >> 21) % 256);
        bool ok = false;
        const double start = NowSeconds();
        if (opts.mode == "prepared") {
          ok = read ? (*client)
                          ->ExecutePrepared("rd", {Value::Int4(lo),
                                                   Value::Int4(lo + 16)})
                          .ok()
                    : (*client)
                          ->ExecutePrepared("wr", {Value::Int4(seq++)})
                          .ok();
        } else {
          std::string statement;
          if (opts.mode == "raw") {
            if (read) {
              statement = join_read + " >= " + std::to_string(lo) + " and " +
                          av + " <= " + std::to_string(lo + 16);
            } else {
              statement = "append to acct" + std::to_string(c) +
                          " (v = " + std::to_string(seq++) + ")";
            }
          } else {  // count: the historical durability-sweep mix
            if (read) {
              statement = "retrieve (n = count(a" + std::to_string(target) +
                          ".v))";
            } else {
              statement = "append to acct" + std::to_string(c) +
                          " (v = " + std::to_string(seq++) + ")";
            }
          }
          ok = (*client)->Execute(statement).ok();
        }
        const double elapsed_us = (NowSeconds() - start) * 1e6;
        if (!ok) {
          failures.fetch_add(1);
          return;
        }
        latency_us.Record(static_cast<uint64_t>(elapsed_us));
        (read ? reads[c] : writes[c])++;
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(opts.seconds * 1e3)));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed = NowSeconds() - t0;
  if (failures.load() != 0) {
    std::fprintf(stderr, "cell clients=%d: %d client failures\n", clients,
                 failures.load());
    std::exit(1);
  }

  CellResult cell;
  cell.clients = clients;
  cell.seconds = elapsed;
  for (int c = 0; c < clients; ++c) {
    cell.read_ops += reads[c];
    cell.write_ops += writes[c];
  }
  const tdb::obs::HistogramSnapshot lat = SnapshotOf(latency_us);
  cell.ops = lat.count;
  cell.p50 = static_cast<double>(lat.Quantile(50)) / 1e3;
  cell.p95 = static_cast<double>(lat.Quantile(95)) / 1e3;
  cell.p99 = static_cast<double>(lat.Quantile(99)) / 1e3;
  cell.max = static_cast<double>(lat.Quantile(100)) / 1e3;
  cell.mean = lat.count == 0 ? 0
                             : static_cast<double>(lat.sum) /
                                   static_cast<double>(lat.count) / 1e3;
  const auto counters_after = (*db)->Snapshot().counters;
  auto delta = [&](const char* name) -> uint64_t {
    const auto before = counters_before.find(name);
    const auto after = counters_after.find(name);
    const uint64_t b = before == counters_before.end() ? 0 : before->second;
    const uint64_t a = after == counters_after.end() ? 0 : after->second;
    return a - b;
  };
  cell.journal_commits = delta("journal.commits");
  cell.journal_group_syncs = delta("journal.group_syncs");
  cell.parses = delta("sql.parses");
  cell.plan_builds = delta("plan.builds");
  cell.plancache_hits = delta("plancache.hits");
  cell.plancache_misses = delta("plancache.misses");
  return cell;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--durability=off") {
      opts.durability = DurabilityMode::kOff;
    } else if (arg == "--durability=journal") {
      opts.durability = DurabilityMode::kJournal;
    } else if (arg == "--durability=sync") {
      opts.durability = DurabilityMode::kJournalSync;
    } else if (arg.rfind("--clients=", 0) == 0) {
      opts.client_counts.clear();
      std::string list = arg.substr(10);
      for (size_t pos = 0; pos < list.size();) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        opts.client_counts.push_back(
            std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (arg.rfind("--seconds=", 0) == 0) {
      opts.seconds = std::atof(arg.c_str() + 10);
    } else if (arg.rfind("--read-pct=", 0) == 0) {
      opts.read_pct = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--group-window-us=", 0) == 0) {
      opts.group_window_us = std::atoi(arg.c_str() + 18);
    } else if (arg == "--mode=count" || arg == "--mode=raw" ||
               arg == "--mode=prepared") {
      opts.mode = arg.substr(7);
    } else if (arg == "--server=thread") {
      opts.epoll = false;
    } else if (arg == "--server=epoll") {
      opts.epoll = true;
    } else if (arg == "--plan-cache") {
      opts.plan_cache = true;
    } else if (arg.rfind("--root=", 0) == 0) {
      opts.root = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--durability=off|journal|sync]\n"
                   "          [--clients=1,2,4,8] [--seconds=S]\n"
                   "          [--read-pct=N] [--group-window-us=U]\n"
                   "          [--mode=count|raw|prepared]\n"
                   "          [--server=thread|epoll] [--plan-cache]\n"
                   "          [--root=DIR]\n",
                   argv[0]);
      return 1;
    }
  }
  if (opts.root.empty()) {
    opts.root = "/tmp/tquel_load_" + std::to_string(::getpid());
  }
  const std::string socket_path = opts.root + ".sock";

  Die(tdb::Env::Default()->CreateDirIfMissing(opts.root), "create root");
  DatabaseOptions db_options = DatabaseOptions::FromEnv();
  db_options.durability = opts.durability;
  db_options.metrics = true;
  db_options.plan_cache = opts.plan_cache;
  if (opts.group_window_us >= 0) {
    db_options.group_commit_window_micros = opts.group_window_us;
  }
  DatabaseRegistry registry(opts.root, db_options);
  ServerOptions srv_options;
  srv_options.unix_path = socket_path;
  srv_options.epoll = opts.epoll;
  Server server(&registry, srv_options);
  Die(server.Start(), "server start");

  std::vector<CellResult> cells;
  for (int clients : opts.client_counts) {
    cells.push_back(RunCell(opts, socket_path, &registry, clients));
    std::fprintf(stderr, "clients=%d ops=%llu throughput=%.0f/s p50=%.3fms\n",
                 cells.back().clients,
                 static_cast<unsigned long long>(cells.back().ops),
                 static_cast<double>(cells.back().ops) / cells.back().seconds,
                 cells.back().p50);
  }
  server.Stop();

  std::string out = "{\n  \"source\": \"bench/load_server.cc\",\n";
  out += "  \"durability\": \"" + std::string(DurabilityModeName(
                                      opts.durability)) + "\",\n";
  out += "  \"mode\": \"" + opts.mode + "\",\n";
  out += "  \"server\": \"" + std::string(opts.epoll ? "epoll" : "thread") +
         "\",\n";
  out += "  \"plan_cache\": " + std::string(opts.plan_cache ? "true"
                                                            : "false") +
         ",\n";
  out += "  \"read_pct\": " + std::to_string(opts.read_pct) + ",\n";
  out += "  \"group_window_us\": " +
         std::to_string(db_options.group_commit_window_micros) + ",\n";
  out += "  \"seconds_per_cell\": " + FormatDouble(opts.seconds) + ",\n";
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out += "    {\"clients\": " + std::to_string(c.clients);
    out += ", \"ops\": " + std::to_string(c.ops);
    out += ", \"read_ops\": " + std::to_string(c.read_ops);
    out += ", \"write_ops\": " + std::to_string(c.write_ops);
    out += ", \"throughput_ops_per_s\": " +
           FormatDouble(static_cast<double>(c.ops) / c.seconds);
    out += ", \"latency_ms\": {\"mean\": " + FormatDouble(c.mean);
    out += ", \"p50\": " + FormatDouble(c.p50);
    out += ", \"p95\": " + FormatDouble(c.p95);
    out += ", \"p99\": " + FormatDouble(c.p99);
    out += ", \"max\": " + FormatDouble(c.max) + "}";
    out += ", \"engine\": {\"parses\": " + std::to_string(c.parses);
    out += ", \"plan_builds\": " + std::to_string(c.plan_builds);
    out += ", \"plancache_hits\": " + std::to_string(c.plancache_hits);
    out += ", \"plancache_misses\": " + std::to_string(c.plancache_misses);
    out += "}";
    out += ", \"journal\": {\"commits\": " + std::to_string(c.journal_commits);
    out += ", \"group_syncs\": " + std::to_string(c.journal_group_syncs);
    out += "}}";
    if (i + 1 < cells.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
