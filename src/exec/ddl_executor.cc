#include "exec/ddl_executor.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "exec/eval.h"
#include "exec/version.h"
#include "storage/btree_file.h"
#include "storage/page.h"
#include "exec/version_source.h"
#include "util/stringx.h"

namespace tdb {

Result<Attribute> ParseAttrType(const std::string& name,
                                const std::string& type_name) {
  Attribute a;
  a.name = name;
  std::string t = ToLower(type_name);
  if (t == "i1") {
    a.type = TypeId::kInt1;
  } else if (t == "i2") {
    a.type = TypeId::kInt2;
  } else if (t == "i4") {
    a.type = TypeId::kInt4;
  } else if (t == "f8" || t == "f4") {
    a.type = TypeId::kFloat8;  // f4 stored at double precision
  } else if (t.size() > 1 && t[0] == 'c') {
    int64_t w = 0;
    if (!ParseInt64(t.substr(1), &w) || w < 1 || w > 255) {
      return Status::Invalid("bad char width in type '" + type_name + "'");
    }
    a.type = TypeId::kChar;
    a.width = static_cast<uint16_t>(w);
    return a;
  } else {
    return Status::Invalid("unknown type '" + type_name +
                           "' (use i1, i2, i4, f8, or c<N>)");
  }
  a.width = TypeWidth(a.type);
  return a;
}

Result<ExecResult> DdlExecutor::Create(const CreateStmt& stmt) {
  DbType type;
  if (stmt.persistent && stmt.has_valid_time) {
    type = DbType::kTemporal;
  } else if (stmt.persistent) {
    type = DbType::kRollback;
  } else if (stmt.has_valid_time) {
    type = DbType::kHistorical;
  } else {
    type = DbType::kStatic;
  }
  std::vector<Attribute> attrs;
  for (const CreateStmt::AttrDef& def : stmt.attrs) {
    TDB_ASSIGN_OR_RETURN(Attribute a, ParseAttrType(def.name, def.type_name));
    attrs.push_back(std::move(a));
  }
  TDB_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Create(std::move(attrs), type,
                     stmt.event ? EntityKind::kEvent : EntityKind::kInterval));
  // Records must fit a page under every organization, with headroom for
  // the largest page header (B-tree leaf, 16 bytes) and the two-level
  // history store's 8-byte back pointer.
  const uint32_t kMaxRecordSize = env_.usable_page_size() - 16 - 8;
  if (schema.record_size() > kMaxRecordSize) {
    return Status::Invalid(StrPrintf(
        "record size %u exceeds the maximum of %u bytes",
        schema.record_size(), kMaxRecordSize));
  }
  RelationMeta meta;
  meta.name = stmt.relation;
  meta.schema = std::move(schema);
  meta.org = Organization::kHeap;
  TDB_RETURN_NOT_OK(env_.catalog->Create(meta));
  ExecResult out;
  out.message = StrPrintf("created %s relation %s", DbTypeName(type),
                          stmt.relation.c_str());
  return out;
}

Status DdlExecutor::DeleteFiles(const RelationMeta& meta, bool indexes_too) {
  std::vector<std::string> paths = {
      env_.dir + "/" + meta.DataFileName(),
      env_.dir + "/" + meta.HistoryFileName(),
      env_.dir + "/" + meta.name + ".anc",
  };
  for (const SegmentMeta& sm : meta.segments) {
    paths.push_back(env_.dir + "/" + meta.SegmentFileName(sm.id));
  }
  if (indexes_too) {
    for (const IndexMeta& idx : meta.indexes) {
      paths.push_back(env_.dir + "/" + idx.CurrentFileName());
      paths.push_back(env_.dir + "/" + idx.HistoryFileName());
    }
  }
  for (const std::string& path : paths) {
    if (!env_.env->FileExists(path)) continue;
    // Pre-image the whole file so destroy / modify roll back to intact
    // storage if the statement dies after this point; a file whose
    // pre-image did not reach the journal must not be deleted.
    if (env_.journal != nullptr) {
      TDB_RETURN_NOT_OK(env_.journal->BeforeDeleteFile(path));
    }
    TDB_RETURN_NOT_OK(env_.env->DeleteFile(path));
  }
  return Status::OK();
}

Result<ExecResult> DdlExecutor::Destroy(const DestroyStmt& stmt) {
  const RelationMeta* meta = env_.catalog->Find(stmt.relation);
  if (meta == nullptr) {
    return Status::NotFound("relation '" + stmt.relation + "' does not exist");
  }
  env_.CloseRelation(stmt.relation);
  TDB_RETURN_NOT_OK(DeleteFiles(*meta, /*indexes_too=*/true));
  TDB_RETURN_NOT_OK(env_.catalog->Drop(stmt.relation));
  ExecResult out;
  out.message = "destroyed relation " + stmt.relation;
  return out;
}

namespace {

/// Writes back a file that `modify` built through its own pager, and under
/// kJournalSync fsyncs it too.  That pager dies before the statement
/// commits, and the commit syncs only the pagers of open relations — which
/// skip their fsync when they themselves wrote nothing.
Status FinishBuiltFile(Pager* pager, const Journal* journal) {
  TDB_RETURN_NOT_OK(pager->Flush());
  if (journal == nullptr || journal->mode() != DurabilityMode::kJournalSync) {
    return Status::OK();
  }
  return pager->Sync();
}

struct StoredVersion {
  std::vector<uint8_t> rec;
  bool is_current = false;
};

/// Dumps every version of a relation (history first, so chain rebuilds see
/// the oldest versions first).
Result<std::vector<StoredVersion>> CollectAll(Relation* rel) {
  const Schema& schema = rel->schema();
  std::vector<StoredVersion> history;
  std::vector<StoredVersion> primary;
  AccessSpec spec;
  spec.kind = AccessSpec::Kind::kScan;
  TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, spec));
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, src->Next());
    if (!have) break;
    StoredVersion v;
    TDB_ASSIGN_OR_RETURN(v.rec, EncodeRecord(schema, src->ref().FullRow()));
    v.is_current = src->ref().IsCurrent(schema);
    (src->ref().in_history ? history : primary).push_back(std::move(v));
  }
  history.insert(history.end(), std::make_move_iterator(primary.begin()),
                 std::make_move_iterator(primary.end()));
  return history;
}

}  // namespace

Status DdlExecutor::RebuildIndexes(const std::string& name) {
  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(name));
  if (rel->indexes().empty()) return Status::OK();
  const Schema& schema = rel->schema();
  AccessSpec spec;
  spec.kind = AccessSpec::Kind::kScan;
  TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, spec));
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, src->Next());
    if (!have) break;
    TDB_ASSIGN_OR_RETURN(auto rec, EncodeRecord(schema, src->ref().FullRow()));
    if (src->ref().IsCurrent(schema)) {
      TDB_RETURN_NOT_OK(rel->IndexInsertCurrent(rec, src->ref().tid,
                                                src->ref().in_history));
    } else {
      TDB_RETURN_NOT_OK(rel->IndexInsertHistory(rec, src->ref().tid,
                                                src->ref().in_history));
    }
  }
  return Status::OK();
}

Result<ExecResult> DdlExecutor::Modify(const ModifyStmt& stmt) {
  RelationMeta* existing = env_.catalog->Find(stmt.relation);
  if (existing == nullptr) {
    return Status::NotFound("relation '" + stmt.relation + "' does not exist");
  }
  RelationMeta meta = *existing;  // copy to mutate
  const Schema& schema = meta.schema;

  Organization org;
  if (stmt.organization == "heap") {
    org = Organization::kHeap;
  } else if (stmt.organization == "hash") {
    org = Organization::kHash;
  } else if (stmt.organization == "btree") {
    org = Organization::kBtree;
  } else {
    org = Organization::kIsam;
  }
  if (stmt.two_level && org == Organization::kHeap) {
    return Status::Invalid("a two-level store needs a keyed (hash, isam, "
                           "or btree) primary organization");
  }
  std::string key_attr = stmt.key_attr.empty() ? meta.key_attr : stmt.key_attr;
  if (org != Organization::kHeap) {
    if (key_attr.empty()) {
      return Status::Invalid(
          "modify to hash/isam/btree needs `on <attribute>`");
    }
    if (schema.FindAttr(key_attr) < 0) {
      return Status::Invalid("relation has no attribute '" + key_attr + "'");
    }
  }
  if (stmt.two_level && !HasTransactionTime(schema.db_type()) &&
      !HasValidTime(schema.db_type())) {
    return Status::Invalid("a static relation has no history to two-level");
  }
  if (org == Organization::kBtree && !meta.indexes.empty()) {
    return Status::NotSupported(
        "secondary indexes cannot be kept consistent across B-tree leaf "
        "splits; drop the indexes before `modify ... to btree`");
  }

  // 1. Collect every stored version.
  TDB_ASSIGN_OR_RETURN(Relation * old_rel, env_.GetRelation(stmt.relation));
  TDB_ASSIGN_OR_RETURN(auto versions, CollectAll(old_rel));
  size_t current_count = 0;
  for (const StoredVersion& v : versions) {
    if (v.is_current) ++current_count;
  }

  // 2. Drop the old physical files (indexes are rebuilt below).
  env_.CloseRelation(stmt.relation);
  TDB_RETURN_NOT_OK(DeleteFiles(meta, /*indexes_too=*/true));

  // 3. New metadata.  CollectAll already drained any vacuum segments, so
  // the rebuilt relation starts with everything back in the active stores.
  meta.segments.clear();
  meta.org = org;
  meta.key_attr = org == Organization::kHeap ? meta.key_attr : key_attr;
  meta.fillfactor = stmt.fillfactor;
  meta.two_level = stmt.two_level;
  meta.clustered_history = stmt.clustered_history;
  TDB_ASSIGN_OR_RETURN(RecordLayout layout, LayoutFor(schema, key_attr));

  size_t primary_count = stmt.two_level ? current_count : versions.size();
  if (org == Organization::kHash) {
    meta.hash_buckets = HashFile::BucketsFor(
        std::max<uint64_t>(primary_count, 1), schema.record_size(),
        env_.usable_page_size(), stmt.fillfactor);
  }
  if (stmt.two_level) {
    // Anchor file: one (key, head-tid) entry per tuple.
    uint16_t anchor_rec = static_cast<uint16_t>(layout.key_width + 8);
    meta.history_buckets = HashFile::BucketsFor(
        std::max<uint64_t>(current_count, 1), anchor_rec,
        env_.usable_page_size(), 100);
  }

  // 4. Build the new primary file.
  std::string data_path = env_.dir + "/" + meta.DataFileName();
  auto primary_records = [&]() {
    std::vector<std::vector<uint8_t>> recs;
    for (const StoredVersion& v : versions) {
      if (!stmt.two_level || v.is_current) recs.push_back(v.rec);
    }
    return recs;
  };
  switch (org) {
    case Organization::kHeap: {
      TDB_ASSIGN_OR_RETURN(
          auto pager,
          Pager::Open(env_.env, data_path, env_.registry->ForFile(meta.name),
                      /*frames=*/1, env_.journal, env_.storage));
      TDB_RETURN_NOT_OK(pager->Reset());
      TDB_ASSIGN_OR_RETURN(auto heap, HeapFile::Open(std::move(pager), layout));
      for (const auto& rec : primary_records()) {
        TDB_RETURN_NOT_OK(heap->Insert(rec.data(), rec.size(), nullptr));
      }
      TDB_RETURN_NOT_OK(FinishBuiltFile(heap->pager(), env_.journal));
      break;
    }
    case Organization::kHash: {
      TDB_ASSIGN_OR_RETURN(
          auto pager,
          Pager::Open(env_.env, data_path, env_.registry->ForFile(meta.name),
                      /*frames=*/1, env_.journal, env_.storage));
      TDB_ASSIGN_OR_RETURN(
          auto hash,
          HashFile::Create(std::move(pager), layout, meta.hash_buckets));
      for (const auto& rec : primary_records()) {
        TDB_RETURN_NOT_OK(hash->Insert(rec.data(), rec.size(), nullptr));
      }
      TDB_RETURN_NOT_OK(FinishBuiltFile(hash->pager(), env_.journal));
      break;
    }
    case Organization::kIsam: {
      TDB_ASSIGN_OR_RETURN(
          auto pager,
          Pager::Open(env_.env, data_path, env_.registry->ForFile(meta.name),
                      /*frames=*/1, env_.journal, env_.storage));
      TDB_ASSIGN_OR_RETURN(
          auto isam,
          IsamFile::BulkLoad(std::move(pager), layout, primary_records(),
                             stmt.fillfactor, &meta.isam));
      TDB_RETURN_NOT_OK(FinishBuiltFile(isam->pager(), env_.journal));
      break;
    }
    case Organization::kBtree: {
      // B-trees build incrementally; the fill factor does not apply.
      TDB_ASSIGN_OR_RETURN(
          auto pager,
          Pager::Open(env_.env, data_path, env_.registry->ForFile(meta.name),
                      /*frames=*/1, env_.journal, env_.storage));
      TDB_ASSIGN_OR_RETURN(auto btree,
                           BtreeFile::Create(std::move(pager), layout));
      for (const auto& rec : primary_records()) {
        TDB_RETURN_NOT_OK(btree->Insert(rec.data(), rec.size(), nullptr));
      }
      TDB_RETURN_NOT_OK(FinishBuiltFile(btree->pager(), env_.journal));
      break;
    }
  }

  TDB_RETURN_NOT_OK(env_.catalog->Update(meta));

  // 5. Two-level: feed history versions through the relation so chains and
  // anchors are built (oldest first, as CollectAll returns them).
  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt.relation));
  if (stmt.two_level) {
    for (const StoredVersion& v : versions) {
      if (v.is_current) continue;
      TDB_RETURN_NOT_OK(rel->AppendHistory(v.rec, nullptr));
    }
    TDB_RETURN_NOT_OK(rel->history()->pager()->Flush());
    TDB_RETURN_NOT_OK(rel->anchors()->pager()->Flush());
  }

  // 6. Rebuild secondary indexes over the new locations.
  TDB_RETURN_NOT_OK(RebuildIndexes(stmt.relation));

  ExecResult out;
  out.message = StrPrintf(
      "modified %s to %s%s (fillfactor %d, %zu versions)",
      stmt.relation.c_str(), stmt.two_level ? "twolevel " : "",
      stmt.organization.c_str(), stmt.fillfactor, versions.size());
  return out;
}

Result<ExecResult> DdlExecutor::Vacuum(const VacuumStmt& stmt) {
  RelationMeta* existing = env_.catalog->Find(stmt.relation);
  if (existing == nullptr) {
    return Status::NotFound("relation '" + stmt.relation + "' does not exist");
  }
  if (!existing->two_level) {
    return Status::Invalid("vacuum needs a two-level relation; use "
                           "`modify " + stmt.relation +
                           " to twolevel ...` first");
  }
  if (!existing->indexes.empty()) {
    return Status::NotSupported(
        "secondary index entries pin history tids in the active store; "
        "drop the indexes before `vacuum " + stmt.relation + "`");
  }

  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt.relation));
  const Schema& schema = rel->schema();

  // A version is cold once its end stamp precedes the cutoff: transaction
  // stop when the relation carries transaction time (vacuum must never move
  // a version rollback could still surface as current), else the valid
  // time's end (events carry a single instant).
  int stamp_idx = schema.tx_stop_index();
  if (stamp_idx < 0) stamp_idx = schema.valid_to_index();
  if (stamp_idx < 0) stamp_idx = schema.valid_from_index();
  if (stamp_idx < 0) {
    return Status::Invalid("relation '" + stmt.relation +
                           "' has no temporal attributes to vacuum by");
  }

  TimePoint cutoff = env_.now;
  if (stmt.before != nullptr) {
    Evaluator eval(env_.now);
    Binding empty;
    TDB_ASSIGN_OR_RETURN(Interval at, eval.EvalTemporal(*stmt.before, empty));
    cutoff = at.from;
  }

  // Partition policy: one wide segment, or one segment per epoch of the
  // version's end stamp.
  int64_t epoch = 0;
  const std::string& policy = env_.vacuum_partition;
  if (policy.rfind("epoch:", 0) == 0) {
    if (!ParseInt64(policy.substr(6), &epoch) || epoch <= 0) {
      return Status::Invalid("bad vacuum partition policy '" + policy + "'");
    }
  } else if (!policy.empty() && policy != "single") {
    return Status::Invalid("bad vacuum partition policy '" + policy +
                           "' (use \"single\" or \"epoch:<seconds>\")");
  }

  // Anchor records hold the primary key at offset 0.
  RecordLayout alayout;
  {
    int kidx = schema.FindAttr(rel->meta().key_attr);
    if (kidx < 0) {
      return Status::Corruption("two-level relation lost its key attribute");
    }
    alayout.key_offset = 0;
    alayout.key_type = schema.attr(static_cast<size_t>(kidx)).type;
    alayout.key_width = schema.attr(static_cast<size_t>(kidx)).width;
  }

  // Snapshot the keys first: migration rewrites anchor records in place,
  // which is not safe under the same hash file's scan cursor.
  std::vector<Value> keys;
  {
    TDB_ASSIGN_OR_RETURN(auto cur, rel->anchors()->Scan());
    while (true) {
      TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
      if (!have) break;
      keys.push_back(alayout.KeyOf(cur->record().data()));
    }
  }

  const uint16_t rec_size = schema.record_size();
  size_t migrated = 0;
  for (const Value& key : keys) {
    TDB_ASSIGN_OR_RETURN(std::optional<HistoryTid> head,
                         rel->AnchorLookup(key));
    // seg != 0: a prior vacuum already moved the whole chain.
    if (!head.has_value() || head->seg != 0) continue;

    // Walk the active-store chain newest-first, keeping the raw records
    // (back pointers included).  The walk stops where a prior vacuum's
    // segment tail begins; that link is preserved below.
    struct Link {
      Tid tid;
      std::vector<uint8_t> hrec;
      bool cold = false;
    };
    std::vector<Link> chain;
    std::optional<HistoryTid> at = head;
    while (at.has_value() && at->seg == 0) {
      Link l;
      l.tid = at->tid;
      TDB_ASSIGN_OR_RETURN(l.hrec, rel->history()->Fetch(at->tid));
      TimePoint stamp = DecodeAttr(schema, static_cast<size_t>(stamp_idx),
                                   l.hrec.data())
                            .AsTime();
      l.cold = stamp.seconds() < cutoff.seconds() &&
               stamp.seconds() != TimePoint::Forever().seconds();
      const uint8_t* bp = l.hrec.data() + rec_size;
      HistoryTid prev;
      std::memcpy(&prev.tid.page, bp, 4);
      std::memcpy(&prev.tid.slot, bp + 4, 2);
      std::memcpy(&prev.seg, bp + 6, 2);
      chain.push_back(std::move(l));
      if (prev.tid.page == kNoPage) {
        at.reset();
      } else {
        at = prev;
      }
    }

    // Only a maximal cold *suffix* (the oldest versions) moves: the chain
    // is cut at one point, so the segment part must stay contiguous.
    size_t split = chain.size();
    while (split > 0 && chain[split - 1].cold) --split;
    if (split == chain.size()) continue;

    // Migrate oldest-first so each appended record can point back at the
    // one before it, starting from any prior vacuum's tail.
    std::optional<HistoryTid> prev = at;
    for (size_t j = chain.size(); j > split; --j) {
      Link& l = chain[j - 1];
      int64_t secs = DecodeAttr(schema, static_cast<size_t>(stamp_idx),
                                l.hrec.data())
                         .AsTime()
                         .seconds();
      int64_t lo = 0;
      int64_t hi = std::numeric_limits<int64_t>::max();
      if (epoch > 0) {
        lo = (secs / epoch) * epoch;
        hi = lo + epoch;
      }
      TDB_ASSIGN_OR_RETURN(HeapFile * segfile, rel->EnsureSegment(lo, hi));
      uint16_t seg_id = 0;
      for (const Relation::Segment& s : rel->segments()) {
        if (s.file.get() == segfile) {
          seg_id = s.meta.id;
          break;
        }
      }
      uint8_t* bp = l.hrec.data() + rec_size;
      uint32_t ppage = kNoPage;
      uint16_t pslot = 0;
      uint16_t pseg = 0;
      if (prev.has_value()) {
        ppage = prev->tid.page;
        pslot = prev->tid.slot;
        pseg = prev->seg;
      }
      std::memcpy(bp, &ppage, 4);
      std::memcpy(bp + 4, &pslot, 2);
      std::memcpy(bp + 6, &pseg, 2);
      Tid ntid;
      TDB_RETURN_NOT_OK(rel->AppendToSegment(seg_id, l.hrec, &ntid));
      prev = HistoryTid{ntid, seg_id};
      ++migrated;
    }

    // Reconnect: the oldest warm version — or the anchor, when the whole
    // chain moved — now points at the migrated head.
    if (split == 0) {
      TDB_RETURN_NOT_OK(rel->UpdateAnchor(key, *prev));
    } else {
      TDB_RETURN_NOT_OK(
          rel->PatchHistoryBackPtr(HistoryTid{chain[split - 1].tid, 0}, prev));
    }
    for (size_t j = split; j < chain.size(); ++j) {
      TDB_RETURN_NOT_OK(rel->EraseHistory(chain[j].tid));
    }
  }

  // Persist the segment roster and flush everything the migration touched.
  // The statement journal pre-imaged each page write, so a crash anywhere
  // above rolls back to the pre-vacuum image.
  TDB_RETURN_NOT_OK(env_.catalog->Update(rel->meta()));
  TDB_RETURN_NOT_OK(rel->history()->pager()->Flush());
  TDB_RETURN_NOT_OK(rel->anchors()->pager()->Flush());
  for (const Relation::Segment& s : rel->segments()) {
    TDB_RETURN_NOT_OK(s.file->pager()->Flush());
  }

  ExecResult out;
  out.affected = static_cast<int64_t>(migrated);
  out.message = StrPrintf("vacuumed %zu versions of %s into %zu segments",
                          migrated, stmt.relation.c_str(),
                          rel->segments().size());
  return out;
}

Result<ExecResult> DdlExecutor::Index(const IndexStmt& stmt) {
  RelationMeta* existing = env_.catalog->Find(stmt.relation);
  if (existing == nullptr) {
    return Status::NotFound("relation '" + stmt.relation + "' does not exist");
  }
  RelationMeta meta = *existing;
  int attr_idx = meta.schema.FindAttr(stmt.attr);
  if (attr_idx < 0 ||
      static_cast<size_t>(attr_idx) >= meta.schema.num_user_attrs()) {
    return Status::Invalid("relation has no user attribute '" + stmt.attr +
                           "'");
  }
  if (meta.FindIndex(stmt.attr) != nullptr) {
    return Status::AlreadyExists("attribute '" + stmt.attr +
                                 "' is already indexed");
  }
  if (meta.org == Organization::kBtree) {
    return Status::NotSupported(
        "secondary indexes are not supported on btree relations (leaf "
        "splits move records, which would stale index entries)");
  }

  // Size hash buckets at roughly one bucket per distinct value, assuming
  // the indexed attribute is near-unique (the paper's amount attribute).
  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt.relation));
  size_t current_count = 0;
  {
    AccessSpec spec;
    spec.kind = AccessSpec::Kind::kScan;
    spec.current_only = true;
    TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, spec));
    while (true) {
      TDB_ASSIGN_OR_RETURN(bool have, src->Next());
      if (!have) break;
      if (src->ref().IsCurrent(rel->schema())) ++current_count;
    }
  }

  IndexMeta idx;
  idx.name = stmt.index_name;
  idx.attr = meta.schema.attr(static_cast<size_t>(attr_idx)).name;
  idx.org = stmt.structure == "hash" ? Organization::kHash
                                     : Organization::kHeap;
  idx.levels = stmt.levels;
  if (idx.org == Organization::kHash) {
    idx.nbuckets = static_cast<uint32_t>(std::max<size_t>(current_count, 16));
    idx.history_nbuckets = idx.nbuckets;
  }
  meta.indexes.push_back(idx);
  TDB_RETURN_NOT_OK(env_.catalog->Update(meta));
  env_.CloseRelation(stmt.relation);
  TDB_RETURN_NOT_OK(RebuildIndexes(stmt.relation));

  ExecResult out;
  out.message = StrPrintf("indexed %s.%s as %s (%s, %d-level)",
                          stmt.relation.c_str(), stmt.attr.c_str(),
                          stmt.index_name.c_str(), stmt.structure.c_str(),
                          stmt.levels);
  return out;
}

Result<ExecResult> DdlExecutor::Help(const HelpStmt& stmt) {
  ExecResult out;
  if (stmt.relation.empty()) {
    out.result.columns = {"relation", "type", "kind", "organization",
                          "attributes"};
    for (const std::string& name : env_.catalog->RelationNames()) {
      const RelationMeta* meta = env_.catalog->Find(name);
      std::string org = OrganizationName(meta->org);
      if (meta->two_level) org = "twolevel " + org;
      out.result.rows.push_back(
          {Value::Char(meta->name), Value::Char(DbTypeName(meta->schema.db_type())),
           Value::Char(EntityKindName(meta->schema.entity_kind())),
           Value::Char(org),
           Value::Int4(static_cast<int64_t>(meta->schema.num_user_attrs()))});
    }
    out.affected = static_cast<int64_t>(out.result.rows.size());
    return out;
  }
  const RelationMeta* meta = env_.catalog->Find(stmt.relation);
  if (meta == nullptr) {
    return Status::NotFound("relation '" + stmt.relation + "' does not exist");
  }
  out.result.columns = {"attribute", "type", "width", "implicit", "notes"};
  for (size_t i = 0; i < meta->schema.num_attrs(); ++i) {
    const Attribute& a = meta->schema.attr(i);
    std::string type = TypeIdName(a.type);
    if (a.type == TypeId::kChar) type = StrPrintf("c%u", a.width);
    std::string notes;
    if (EqualsIgnoreCase(a.name, meta->key_attr)) {
      notes = std::string(OrganizationName(meta->org)) + " key";
    } else if (meta->FindIndex(a.name) != nullptr) {
      notes = "indexed";
    }
    out.result.rows.push_back({Value::Char(a.name), Value::Char(type),
                               Value::Int4(a.width),
                               Value::Char(a.implicit ? "yes" : ""),
                               Value::Char(notes)});
  }
  out.affected = static_cast<int64_t>(out.result.rows.size());
  return out;
}

Result<ExecResult> DdlExecutor::Copy(const CopyStmt& stmt) {
  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt.relation));
  const Schema& schema = rel->schema();
  ExecResult out;

  if (!stmt.from) {
    // Dump every version, tab separated, times human readable.
    std::string text;
    AccessSpec spec;
    spec.kind = AccessSpec::Kind::kScan;
    TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, spec));
    while (true) {
      TDB_ASSIGN_OR_RETURN(bool have, src->Next());
      if (!have) break;
      std::string line;
      for (size_t i = 0; i < schema.num_attrs(); ++i) {
        if (i > 0) line += '\t';
        line += src->ref().attr(i).ToString(TimeResolution::kSecond);
      }
      text += line + "\n";
      ++out.affected;
    }
    TDB_RETURN_NOT_OK(env_.env->WriteStringToFile(stmt.path, text));
    out.message = StrPrintf("copied %lld tuples to %s",
                            static_cast<long long>(out.affected),
                            stmt.path.c_str());
    return out;
  }

  // Batch load.  Each line supplies either the user attributes (implicit
  // times defaulted) or every attribute including the temporal ones.
  TDB_ASSIGN_OR_RETURN(std::string text, env_.env->ReadFileToString(stmt.path));
  for (const std::string& raw : Split(text, '\n')) {
    if (Trim(raw).empty()) continue;
    std::vector<std::string> fields = Split(raw, '\t');
    if (fields.size() != schema.num_user_attrs() &&
        fields.size() != schema.num_attrs()) {
      return Status::Invalid(StrPrintf(
          "copy line has %zu fields; expected %zu (user) or %zu (all)",
          fields.size(), schema.num_user_attrs(), schema.num_attrs()));
    }
    Row row(schema.num_attrs());
    for (size_t i = 0; i < schema.num_attrs(); ++i) {
      const Attribute& a = schema.attr(i);
      if (i >= fields.size()) {
        // Default implicit attributes: valid/transaction from now to forever.
        bool is_stop = static_cast<int>(i) == schema.tx_stop_index() ||
                       (static_cast<int>(i) == schema.valid_to_index() &&
                        schema.entity_kind() == EntityKind::kInterval);
        row[i] = Value::Time(is_stop ? TimePoint::Forever() : env_.now);
        continue;
      }
      const std::string& f = fields[i];
      switch (a.type) {
        case TypeId::kInt1:
        case TypeId::kInt2:
        case TypeId::kInt4: {
          int64_t v = 0;
          if (!ParseInt64(f, &v)) {
            return Status::Invalid("bad integer '" + f + "' in copy input");
          }
          row[i] = Value::Int4(v);
          break;
        }
        case TypeId::kFloat8: {
          double v = 0;
          if (!ParseDouble(f, &v)) {
            return Status::Invalid("bad float '" + f + "' in copy input");
          }
          row[i] = Value::Float8(v);
          break;
        }
        case TypeId::kChar:
          row[i] = Value::Char(f);
          break;
        case TypeId::kTime: {
          if (EqualsIgnoreCase(Trim(f), "now")) {
            row[i] = Value::Time(env_.now);
          } else {
            TDB_ASSIGN_OR_RETURN(TimePoint tp, TimePoint::Parse(f));
            row[i] = Value::Time(tp);
          }
          break;
        }
      }
    }
    TDB_ASSIGN_OR_RETURN(auto rec, EncodeRecord(schema, row));
    Tid tid;
    TDB_RETURN_NOT_OK(rel->InsertPrimary(rec, &tid));
    VersionRef ref;
    ref.SetRow(std::move(row));
    RefreshIntervals(schema, &ref);
    if (ref.IsCurrent(schema)) {
      TDB_RETURN_NOT_OK(rel->IndexInsertCurrent(rec, tid, false));
    } else {
      TDB_RETURN_NOT_OK(rel->IndexInsertHistory(rec, tid, false));
    }
    ++out.affected;
  }
  TDB_RETURN_NOT_OK(rel->primary()->pager()->Flush());
  env_.catalog->InvalidateStats(stmt.relation, out.affected);
  out.message = StrPrintf("copied %lld tuples from %s",
                          static_cast<long long>(out.affected),
                          stmt.path.c_str());
  return out;
}

}  // namespace tdb
