#include "catalog/catalog.h"

#include <algorithm>

#include "util/stringx.h"

namespace tdb {

std::string RelationMeta::SegmentFileName(uint32_t id) const {
  return StrPrintf("%s.seg%u", name.c_str(), id);
}

const SegmentMeta* RelationMeta::FindSegmentFor(int64_t stamp) const {
  for (const SegmentMeta& s : segments) {
    if (stamp >= s.lo && stamp < s.hi) return &s;
  }
  return nullptr;
}

uint32_t RelationMeta::NextSegmentId() const {
  uint32_t next = 1;
  for (const SegmentMeta& s : segments) next = std::max(next, s.id + 1);
  return next;
}

const IndexMeta* RelationMeta::FindIndex(const std::string& attr) const {
  for (const IndexMeta& idx : indexes) {
    if (EqualsIgnoreCase(idx.attr, attr)) return &idx;
  }
  return nullptr;
}

uint64_t RelationStats::DistinctOr(const std::string& attr,
                                   uint64_t fallback) const {
  auto it = distinct.find(ToLower(attr));
  return it == distinct.end() ? fallback : it->second;
}

std::string SerializeRelationMeta(const RelationMeta& m) {
  std::string out;
  out += "relation " + m.name + "\n";
  out += "schema " + m.schema.Serialize() + "\n";
  out += StrPrintf("org %d\n", static_cast<int>(m.org));
  out += "key " + (m.key_attr.empty() ? "-" : m.key_attr) + "\n";
  out += StrPrintf("fillfactor %d\n", m.fillfactor);
  out += StrPrintf("hash_buckets %u\n", m.hash_buckets);
  out += "isam " +
         (m.org == Organization::kIsam ? m.isam.Serialize()
                                       : std::string("-")) +
         "\n";
  out += StrPrintf("two_level %d %d %u\n", m.two_level ? 1 : 0,
                   m.clustered_history ? 1 : 0, m.history_buckets);
  for (const IndexMeta& idx : m.indexes) {
    out += StrPrintf("index %s %s %d %d %u %u\n", idx.name.c_str(),
                     idx.attr.c_str(), static_cast<int>(idx.org), idx.levels,
                     idx.nbuckets, idx.history_nbuckets);
  }
  for (const SegmentMeta& seg : m.segments) {
    out += StrPrintf("segment %u %lld %lld\n", seg.id,
                     static_cast<long long>(seg.lo),
                     static_cast<long long>(seg.hi));
  }
  out += "end\n";
  return out;
}

Result<RelationMeta> ParseRelationMeta(const std::string& block) {
  RelationMeta m;
  bool saw_relation = false;
  for (const std::string& raw : Split(block, '\n')) {
    std::string line = Trim(raw);
    if (line.empty() || line == "end") continue;
    size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      return Status::Corruption("bad catalog line: " + line);
    }
    std::string tag = line.substr(0, sp);
    std::string rest = Trim(line.substr(sp + 1));
    if (tag == "relation") {
      m.name = rest;
      saw_relation = true;
    } else if (tag == "schema") {
      TDB_ASSIGN_OR_RETURN(m.schema, Schema::Deserialize(rest));
    } else if (tag == "org") {
      int64_t v = 0;
      if (!ParseInt64(rest, &v)) return Status::Corruption("bad org");
      m.org = static_cast<Organization>(v);
    } else if (tag == "key") {
      m.key_attr = rest == "-" ? "" : rest;
    } else if (tag == "fillfactor") {
      int64_t v = 0;
      if (!ParseInt64(rest, &v)) return Status::Corruption("bad fillfactor");
      m.fillfactor = static_cast<int>(v);
    } else if (tag == "hash_buckets") {
      int64_t v = 0;
      if (!ParseInt64(rest, &v)) return Status::Corruption("bad buckets");
      m.hash_buckets = static_cast<uint32_t>(v);
    } else if (tag == "isam") {
      if (rest != "-") {
        TDB_ASSIGN_OR_RETURN(m.isam, IsamMeta::Parse(rest));
      }
    } else if (tag == "two_level") {
      std::vector<std::string> f = Split(rest, ' ');
      if (f.size() != 3) return Status::Corruption("bad two_level");
      int64_t a = 0;
      int64_t b = 0;
      int64_t c = 0;
      if (!ParseInt64(f[0], &a) || !ParseInt64(f[1], &b) ||
          !ParseInt64(f[2], &c)) {
        return Status::Corruption("bad two_level fields");
      }
      m.two_level = a != 0;
      m.clustered_history = b != 0;
      m.history_buckets = static_cast<uint32_t>(c);
    } else if (tag == "index") {
      std::vector<std::string> f = Split(rest, ' ');
      if (f.size() != 6) return Status::Corruption("bad index line");
      IndexMeta idx;
      idx.name = f[0];
      idx.attr = f[1];
      int64_t org = 0;
      int64_t levels = 0;
      int64_t nb = 0;
      int64_t hnb = 0;
      if (!ParseInt64(f[2], &org) || !ParseInt64(f[3], &levels) ||
          !ParseInt64(f[4], &nb) || !ParseInt64(f[5], &hnb)) {
        return Status::Corruption("bad index fields");
      }
      idx.org = static_cast<Organization>(org);
      idx.levels = static_cast<int>(levels);
      idx.nbuckets = static_cast<uint32_t>(nb);
      idx.history_nbuckets = static_cast<uint32_t>(hnb);
      m.indexes.push_back(std::move(idx));
    } else if (tag == "segment") {
      std::vector<std::string> f = Split(rest, ' ');
      if (f.size() != 3) return Status::Corruption("bad segment line");
      SegmentMeta seg;
      int64_t id = 0;
      if (!ParseInt64(f[0], &id) || !ParseInt64(f[1], &seg.lo) ||
          !ParseInt64(f[2], &seg.hi)) {
        return Status::Corruption("bad segment fields");
      }
      seg.id = static_cast<uint32_t>(id);
      m.segments.push_back(seg);
    } else {
      return Status::Corruption("unknown catalog tag: " + tag);
    }
  }
  if (!saw_relation || m.name.empty()) {
    return Status::Corruption("catalog block lacks a relation name");
  }
  return m;
}

Status Catalog::Load() {
  relations_.clear();
  if (!env_->FileExists(CatalogPath())) return Status::OK();
  TDB_ASSIGN_OR_RETURN(std::string text, env_->ReadFileToString(CatalogPath()));
  std::string block;
  for (const std::string& line : Split(text, '\n')) {
    block += line + "\n";
    if (Trim(line) == "end") {
      TDB_ASSIGN_OR_RETURN(RelationMeta meta, ParseRelationMeta(block));
      relations_[ToLower(meta.name)] = std::move(meta);
      block.clear();
    }
  }
  return Status::OK();
}

Status Catalog::Save() const {
  std::string text;
  for (const auto& [_, meta] : relations_) text += SerializeRelationMeta(meta);
  if (journal_ != nullptr) {
    TDB_RETURN_NOT_OK(journal_->BeforeFileRewrite(CatalogPath()));
  }
  return env_->WriteStringToFile(CatalogPath(), text);
}

Status Catalog::Create(RelationMeta meta) {
  std::string key = ToLower(meta.name);
  if (relations_.count(key) > 0) {
    return Status::AlreadyExists("relation '" + meta.name + "' exists");
  }
  stats_.erase(key);
  relations_[key] = std::move(meta);
  return Save();
}

Status Catalog::Drop(const std::string& name) {
  if (relations_.erase(ToLower(name)) == 0) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  stats_.erase(ToLower(name));
  return Save();
}

RelationMeta* Catalog::Find(const std::string& name) {
  auto it = relations_.find(ToLower(name));
  return it == relations_.end() ? nullptr : &it->second;
}

const RelationMeta* Catalog::Find(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  return it == relations_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  for (const auto& [_, meta] : relations_) names.push_back(meta.name);
  return names;
}

Status Catalog::Update(const RelationMeta& meta) {
  std::string key = ToLower(meta.name);
  if (relations_.count(key) == 0) {
    return Status::NotFound("relation '" + meta.name + "' does not exist");
  }
  stats_.erase(key);
  relations_[key] = meta;
  return Save();
}

const RelationStats* Catalog::FindStats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = stats_.find(ToLower(name));
  return it == stats_.end() ? nullptr : &it->second;
}

void Catalog::SetStats(const std::string& name, RelationStats stats) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  const std::string key = ToLower(name);
  const int64_t rows = static_cast<int64_t>(stats.rows);
  auto [it, first] = row_tracks_.try_emplace(key);
  it->second.rows = rows;
  if (first) {
    it->second.base = rows;
  } else {
    AdvanceEpoch(&it->second);
  }
  stats_[key] = std::move(stats);
}

void Catalog::InvalidateStats(const std::string& name, int64_t row_delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  const std::string key = ToLower(name);
  stats_.erase(key);
  auto it = row_tracks_.find(key);
  if (it == row_tracks_.end()) return;
  it->second.rows = std::max<int64_t>(0, it->second.rows + row_delta);
  AdvanceEpoch(&it->second);
}

uint64_t Catalog::StatsEpoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = row_tracks_.find(ToLower(name));
  return it == row_tracks_.end() ? 0 : it->second.epoch;
}

void Catalog::AdvanceEpoch(RowTrack* t) {
  if (t->rows >= 2 * std::max<int64_t>(t->base, 1) ||
      (t->base > 0 && 2 * t->rows <= t->base)) {
    ++t->epoch;
    t->base = t->rows;
  }
}

void Catalog::InvalidateAllStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.clear();
}

}  // namespace tdb
