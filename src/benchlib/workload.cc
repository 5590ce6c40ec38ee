#include "benchlib/workload.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <set>

#include "diskmodel/disk_model.h"
#include "exec/plan.h"
#include "util/stringx.h"

namespace tdb {
namespace bench {

namespace {

// Jan 1 1980 00:00 UTC and the 45-day randomization window of Section 5.1.
constexpr int64_t kEpoch1980 = 315532800;
constexpr int64_t kInitWindowSeconds = 45LL * 86400;
// The benchmark clock starts at Mar 1 1980, after every initial timestamp.
constexpr int64_t kBenchStart = kEpoch1980 + 60LL * 86400;

constexpr int kAmountQ7 = 69400;   // carried by tuple id 500
constexpr int kAmountQ8 = 73700;   // carried by tuple id 600

std::string CreatePrefix(DbType type) {
  switch (type) {
    case DbType::kStatic:
      return "create";
    case DbType::kRollback:
      return "create persistent";
    case DbType::kHistorical:
      return "create interval";
    case DbType::kTemporal:
      return "create persistent interval";
  }
  return "create";
}

}  // namespace

Result<std::unique_ptr<BenchmarkDb>> BenchmarkDb::Create(
    const WorkloadConfig& config, DatabaseOptions options) {
  std::unique_ptr<BenchmarkDb> bench(new BenchmarkDb());
  bench->config_ = config;
  // At paper scale the probed tuples are ids 500 and 600; smaller
  // configurations scale them into range.
  bench->probe_id_ = config.ntuples > 600 ? 500 : config.ntuples / 2;
  bench->probe2_id_ = config.ntuples > 600 ? 600 : config.ntuples * 3 / 4;
  bench->env_ = std::make_unique<MemEnv>();
  TDB_RETURN_NOT_OK(bench->OpenDb(std::move(options)));
  Database* db = bench->db_.get();

  for (const char* suffix : {"h", "i"}) {
    TDB_RETURN_NOT_OK(
        db->Execute(CreatePrefix(config.type) + " bench_" + suffix +
                    " (id = i4, amount = i4, seq = i4, string = c96)")
            .status());
  }

  // Generate the load file: random amounts (with the two probe values
  // pinned and unique), random 96-char strings, randomized initial times.
  Random rng(config.seed);
  std::string tsv;
  bool tx = HasTransactionTime(config.type);
  bool vt = HasValidTime(config.type);
  for (int id = 0; id < config.ntuples; ++id) {
    int64_t amount;
    if (id == bench->probe_id_) {
      amount = kAmountQ7;
    } else if (id == bench->probe2_id_) {
      amount = kAmountQ8;
    } else {
      do {
        amount = rng.UniformRange(0, 99999);
      } while (amount == kAmountQ7 || amount == kAmountQ8);
    }
    std::string line = StrPrintf("%d\t%lld\t0\t%s", id,
                                 static_cast<long long>(amount),
                                 rng.NextString(96).c_str());
    TimePoint start(static_cast<int32_t>(
        kEpoch1980 + rng.UniformRange(0, kInitWindowSeconds - 1)));
    std::string start_text = start.ToString(TimeResolution::kSecond);
    if (vt) line += "\t" + start_text + "\tforever";
    if (tx) line += "\t" + start_text + "\tforever";
    tsv += line + "\n";
  }
  TDB_RETURN_NOT_OK(bench->env_->WriteStringToFile("/bench_load.tsv", tsv));
  TDB_RETURN_NOT_OK(db->Execute("copy bench_h from \"/bench_load.tsv\"")
                        .status());
  TDB_RETURN_NOT_OK(db->Execute("copy bench_i from \"/bench_load.tsv\"")
                        .status());

  // Organize per Figure 3: bench_h hashed on id, bench_i ISAM on id.
  std::string twolevel = config.two_level ? "twolevel " : "";
  std::string history =
      config.two_level
          ? StrPrintf(", history = %s",
                      config.clustered_history ? "clustered" : "simple")
          : "";
  TDB_RETURN_NOT_OK(
      db->Execute(StrPrintf("modify bench_h to %shash on id where "
                            "fillfactor = %d%s",
                            twolevel.c_str(), config.fillfactor,
                            history.c_str()))
          .status());
  TDB_RETURN_NOT_OK(
      db->Execute(StrPrintf("modify bench_i to %sisam on id where "
                            "fillfactor = %d%s",
                            twolevel.c_str(), config.fillfactor,
                            history.c_str()))
          .status());

  if (!config.index_structure.empty()) {
    for (const char* suffix : {"h", "i"}) {
      TDB_RETURN_NOT_OK(
          db->Execute(StrPrintf(
                          "index on bench_%s is amount_%s (amount) with "
                          "structure = %s, levels = %d",
                          suffix, suffix, config.index_structure.c_str(),
                          config.index_levels))
              .status());
    }
  }

  TDB_RETURN_NOT_OK(db->Execute("range of h is bench_h").status());
  TDB_RETURN_NOT_OK(db->Execute("range of i is bench_i").status());
  db->SetNow(TimePoint(static_cast<int32_t>(kBenchStart)));
  return bench;
}

Status BenchmarkDb::OpenDb(DatabaseOptions options) {
  options.env = env_.get();
  options.start_time = TimePoint(static_cast<int32_t>(kBenchStart));
  options.buffer_frames = config_.buffer_frames;
  if (config_.page_size != 0) options.page_size = config_.page_size;
  if (config_.pool_frames > 0) options.pool_frames = config_.pool_frames;
  if (config_.pool_file_cap != 0) {
    options.pool_file_cap = config_.pool_file_cap;
  }
  if (config_.exec_threads > 0) options.exec_threads = config_.exec_threads;
  if (!config_.vacuum_partition.empty()) {
    options.vacuum_partition = config_.vacuum_partition;
  }
  options.plan_cache = config_.plan_cache;
  TDB_ASSIGN_OR_RETURN(db_, Database::Open("/bench", options));
  return Status::OK();
}

Status BenchmarkDb::Reopen(DatabaseOptions options) {
  const TimePoint now = db_->now();
  db_.reset();
  TDB_RETURN_NOT_OK(OpenDb(std::move(options)));
  TDB_RETURN_NOT_OK(db_->Execute("range of h is bench_h").status());
  TDB_RETURN_NOT_OK(db_->Execute("range of i is bench_i").status());
  db_->SetNow(now);
  return Status::OK();
}

Status BenchmarkDb::UniformUpdateRound() {
  // A day passes between rounds so version timestamps are well separated;
  // within the round the clock is frozen so both relations evolve at the
  // same instant (the paper updates the whole database "at a time").
  db_->AdvanceSeconds(86400);
  int saved = db_->auto_advance_seconds();
  db_->set_auto_advance_seconds(0);
  Status s = db_->Execute("replace h (seq = h.seq + 1)").status();
  if (s.ok()) s = db_->Execute("replace i (seq = i.seq + 1)").status();
  db_->set_auto_advance_seconds(saved);
  TDB_RETURN_NOT_OK(s);
  ++update_count_;
  return Status::OK();
}

Status BenchmarkDb::UpdateSingleTuple(int id, int times) {
  for (int k = 0; k < times; ++k) {
    db_->AdvanceSeconds(60);
    TDB_RETURN_NOT_OK(
        db_->Execute(StrPrintf("replace h (seq = h.seq + 1) where h.id = %d",
                               id))
            .status());
    TDB_RETURN_NOT_OK(
        db_->Execute(StrPrintf("replace i (seq = i.seq + 1) where i.id = %d",
                               id))
            .status());
  }
  return Status::OK();
}

std::string BenchmarkDb::QueryText(int qnum) const {
  DbType type = config_.type;
  bool tx = HasTransactionTime(type);
  bool vt = HasValidTime(type);
  // The "current state" qualifier of Q05-Q10: `when v overlap "now"` where
  // valid time exists, `as of "now"` for rollback, nothing for static.
  auto current = [&](const std::string& var) -> std::string {
    if (vt) return " when " + var + " overlap \"now\"";
    if (tx) return " as of \"now\"";
    return "";
  };
  switch (qnum) {
    case 1:
      return StrPrintf("retrieve (h.id, h.seq) where h.id = %d", probe_id_);
    case 2:
      return StrPrintf("retrieve (i.id, i.seq) where i.id = %d", probe_id_);
    case 3:
      return tx ? "retrieve (h.id, h.seq) as of \"08:00 1/1/80\"" : "";
    case 4:
      return tx ? "retrieve (i.id, i.seq) as of \"08:00 1/1/80\"" : "";
    case 5:
      return StrPrintf("retrieve (h.id, h.seq) where h.id = %d", probe_id_) +
             current("h");
    case 6:
      return StrPrintf("retrieve (i.id, i.seq) where i.id = %d", probe_id_) +
             current("i");
    case 7:
      return StrPrintf("retrieve (h.id, h.seq) where h.amount = %d",
                       kAmountQ7) +
             current("h");
    case 8:
      return StrPrintf("retrieve (i.id, i.seq) where i.amount = %d",
                       kAmountQ8) +
             current("i");
    case 9: {
      std::string q = "retrieve (h.id, i.id, i.amount) where h.id = i.amount";
      if (vt) return q + " when h overlap i and i overlap \"now\"";
      if (tx) return q + " as of \"now\"";
      return q;
    }
    case 10: {
      std::string q = "retrieve (i.id, h.id, h.amount) where i.id = h.amount";
      if (vt) return q + " when h overlap i and h overlap \"now\"";
      if (tx) return q + " as of \"now\"";
      return q;
    }
    case 11:
      if (type != DbType::kTemporal) return "";
      return "retrieve (h.id, h.seq, i.id, i.seq, i.amount) "
             "valid from start of h to end of i "
             "when start of h precede i as of \"4:00 1/1/80\"";
    case 12:
      if (type != DbType::kTemporal) return "";
      return StrPrintf(
          "retrieve (h.id, h.seq, i.id, i.seq, i.amount) "
          "valid from start of (h overlap i) to end of (h extend i) "
          "where h.id = %d and i.amount = %d "
          "when h overlap i as of \"now\"",
          probe_id_, kAmountQ8);
    default:
      return "";
  }
}

Result<Measure> BenchmarkDb::RunText(const std::string& text) {
  TDB_RETURN_NOT_OK(db_->DropAllBuffers());
  db_->io()->ResetAll();
  IoTrace* trace = db_->io()->trace();
  trace->Clear();
  trace->set_enabled(true);
  auto wall0 = std::chrono::steady_clock::now();
  auto result = db_->Execute(text);
  auto wall1 = std::chrono::steady_clock::now();
  trace->set_enabled(false);
  TDB_RETURN_NOT_OK(result.status());
  IoCounters totals = db_->io()->Total();
  Measure m;
  m.input_pages = totals.TotalReads();
  m.output_pages = totals.TotalWrites();
  m.fixed_pages = totals.reads[static_cast<int>(IoCategory::kDirectory)] +
                  totals.reads[static_cast<int>(IoCategory::kTemp)];
  m.rows = static_cast<uint64_t>(result->affected);
  if (result->plan != nullptr) {
    m.plan = result->plan->Summary();
    m.plan_tree = result->plan->Describe(/*with_stats=*/true);
  }
  DiskEstimate estimate = DiskModel().Estimate(trace->events());
  m.random_accesses = estimate.random_accesses;
  m.sequential_accesses = estimate.sequential_accesses;
  m.modeled_ms = estimate.total_ms;
  m.wall_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  trace->Clear();
  return m;
}

Result<Measure> BenchmarkDb::RunQuery(int qnum) {
  std::string text = QueryText(qnum);
  if (text.empty()) {
    return Status::Invalid(StrPrintf("Q%02d is not applicable to a %s "
                                     "database",
                                     qnum, DbTypeName(config_.type)));
  }
  return RunText(text);
}

Result<uint64_t> BenchmarkDb::PagesOf(const std::string& suffix) {
  TDB_ASSIGN_OR_RETURN(Relation * rel, db_->GetRelation("bench_" + suffix));
  uint64_t pages = rel->primary()->page_count();
  if (rel->history() != nullptr) pages += rel->history()->page_count();
  if (rel->anchors() != nullptr) pages += rel->anchors()->page_count();
  return pages;
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  rows_.push_back(std::move(headers));
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < rows_[r].size() ? rows_[r][i] : "";
      bool numeric = !cell.empty() && (std::isdigit(
          static_cast<unsigned char>(cell[0])) || cell[0] == '-');
      if (numeric) {
        line += std::string(widths[i] - cell.size(), ' ') + cell;
      } else {
        cell.resize(widths[i], ' ');
        line += cell;
      }
      line += "  ";
    }
    out += line + "\n";
    if (r == 0) {
      std::string rule;
      for (size_t w : widths) rule += std::string(w, '-') + "  ";
      out += rule + "\n";
    }
  }
  return out;
}

std::string Cell(uint64_t v) {
  return StrPrintf("%llu", static_cast<unsigned long long>(v));
}

std::string Cell(double v, int precision) {
  return StrPrintf("%.*f", precision, v);
}

}  // namespace bench
}  // namespace tdb
