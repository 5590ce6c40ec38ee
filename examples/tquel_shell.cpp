// Interactive TQuel shell: a small REPL over a database directory.
//
//   ./tquel_shell [--durability=off|journal|sync] [--metrics[=PATH]]
//                 <database-directory>
//
// --metrics dumps the session's metrics snapshot as JSON on exit (default
// path METRICS_shell.json in the working directory).
//
// Meta commands:
//   \h            help
//   \d            list relations
//   \now          show the logical clock
//   \advance N    advance the clock N seconds
//   \io           show I/O counters since the last \io
//   \metrics      print the metrics snapshot as JSON
//   \res R        output time resolution: second|minute|hour|day|month|year
//   \plan         toggle printing of query plans
//   \q            quit
// Everything else is executed as TQuel (including `explain analyze
// retrieve ...`).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/chronoquel.h"
#include "core/statement_error.h"
#include "exec/plan.h"
#include "obs/metrics.h"
#include "util/stringx.h"

using tdb::Database;
using tdb::DatabaseOptions;
using tdb::TimeResolution;

namespace {

void PrintHelp() {
  std::printf(
      "TQuel statements:\n"
      "  range of t is R\n"
      "  retrieve [into R] [unique] (t.a, x = t.b + 1, n = count(t.a))\n"
      "      [valid from E to E | valid at E] [where EXPR]\n"
      "      [when TPRED] [as of E [through E]]\n"
      "  append [to] R (a = 1, ...) [valid ...] [where ...] [when ...]\n"
      "  delete t [valid at E] [where ...] [when ...]\n"
      "  replace t (a = t.a + 1) [valid ...] [where ...] [when ...]\n"
      "  create [persistent] [interval|event] R (a = i4, s = c20, ...)\n"
      "  modify R to [twolevel] heap|hash|isam [on a]\n"
      "      [where fillfactor = N, history = clustered|simple]\n"
      "  index on R is I (a) [with structure = heap|hash, levels = 1|2]\n"
      "  copy R from|to \"file\"\n"
      "  destroy R\n"
      "  help [R]\n"
      "Temporal operators: start of, end of, overlap, extend, precede.\n"
      "Time literals: \"now\", \"forever\", \"1981\", \"08:00 1/1/80\".\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The TDB_* levers are read here, once; flags below override them.
  DatabaseOptions options = DatabaseOptions::FromEnv();
  const char* dir = nullptr;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--durability=off") {
      options.durability = tdb::DurabilityMode::kOff;
    } else if (arg == "--durability=journal") {
      options.durability = tdb::DurabilityMode::kJournal;
    } else if (arg == "--durability=sync") {
      options.durability = tdb::DurabilityMode::kJournalSync;
    } else if (arg == "--metrics") {
      options.metrics = true;
      metrics_path = "METRICS_shell.json";
    } else if (arg.rfind("--metrics=", 0) == 0) {
      options.metrics = true;
      metrics_path = arg.substr(10);
    } else if (dir == nullptr && arg.rfind("--", 0) != 0) {
      dir = argv[i];
    } else {
      dir = nullptr;
      break;
    }
  }
  if (dir == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--durability=off|journal|sync] "
                 "[--metrics[=PATH]] <database-directory>\n",
                 argv[0]);
    return 1;
  }
  auto db = Database::Open(dir, options);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Database* d = db->get();
  std::printf("ChronoQuel shell — TQuel over %s (\\h for help, \\q to quit)\n",
              dir);

  TimeResolution resolution = TimeResolution::kSecond;
  bool show_plan = false;
  std::string line;
  while (true) {
    std::printf("tquel> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string text = tdb::Trim(line);
    if (text.empty()) continue;
    if (text == "\\q") break;
    if (text == "\\h") {
      PrintHelp();
      continue;
    }
    if (text == "\\d") {
      for (const std::string& name : d->catalog()->RelationNames()) {
        const auto* meta = d->catalog()->Find(name);
        std::printf("  %-20s %-10s %s%s\n", name.c_str(),
                    DbTypeName(meta->schema.db_type()),
                    meta->two_level ? "twolevel " : "",
                    OrganizationName(meta->org));
      }
      continue;
    }
    if (text == "\\now") {
      std::printf("%s\n", d->now().ToString().c_str());
      continue;
    }
    if (tdb::StartsWith(text, "\\advance")) {
      int64_t secs = 0;
      if (tdb::ParseInt64(text.substr(8), &secs)) {
        d->AdvanceSeconds(secs);
        std::printf("now = %s\n", d->now().ToString().c_str());
      } else {
        std::printf("usage: \\advance <seconds>\n");
      }
      continue;
    }
    if (tdb::StartsWith(text, "\\res")) {
      std::string name = tdb::ToLower(tdb::Trim(text.substr(4)));
      if (name == "second") resolution = TimeResolution::kSecond;
      else if (name == "minute") resolution = TimeResolution::kMinute;
      else if (name == "hour") resolution = TimeResolution::kHour;
      else if (name == "day") resolution = TimeResolution::kDay;
      else if (name == "month") resolution = TimeResolution::kMonth;
      else if (name == "year") resolution = TimeResolution::kYear;
      else {
        std::printf("usage: \\res second|minute|hour|day|month|year\n");
        continue;
      }
      std::printf("output resolution: %s\n", name.c_str());
      continue;
    }
    if (text == "\\plan") {
      show_plan = !show_plan;
      std::printf("plan printing %s\n", show_plan ? "on" : "off");
      continue;
    }
    if (text == "\\io") {
      auto total = d->io()->Total();
      std::printf("reads = %llu, writes = %llu\n",
                  (unsigned long long)total.TotalReads(),
                  (unsigned long long)total.TotalWrites());
      d->io()->ResetAll();
      continue;
    }
    if (text == "\\metrics") {
      if (d->metrics() == nullptr) {
        std::printf("metrics are disabled (TDB_METRICS=0)\n");
      } else {
        std::printf("%s\n", d->Snapshot().ToJson().c_str());
      }
      continue;
    }

    auto result = d->Execute(text);
    if (!result.ok()) {
      // The same rendering a wire client produces from a kError frame:
      // status text plus the offending line with a caret (the
      // StatementContext travels in both cases).
      std::printf("error: %s\n",
                  tdb::FormatStatementError(result.status(), text).c_str());
      continue;
    }
    if (!result->result.columns.empty()) {
      std::printf("%s(%zu rows)\n",
                  result->result.ToString(resolution).c_str(),
                  result->result.num_rows());
      if (show_plan && result->plan != nullptr) {
        std::printf("%s", result->plan->Describe(/*with_stats=*/true).c_str());
      } else if (show_plan && !result->message.empty()) {
        std::printf("%s\n", result->message.c_str());
      }
    } else if (!result->message.empty()) {
      std::printf("%s\n", result->message.c_str());
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << d->Snapshot().ToJson() << "\n";
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
