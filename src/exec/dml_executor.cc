#include "exec/dml_executor.h"

#include "exec/version_source.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// Overwrites a time attribute inside an encoded record.
void StampTime(const Schema& schema, int attr_index, TimePoint tp,
               std::vector<uint8_t>* rec) {
  EncodeAttrInPlace(schema, static_cast<size_t>(attr_index), Value::Time(tp),
                    rec->data());
}

Value DefaultFor(const Attribute& a) {
  switch (a.type) {
    case TypeId::kChar:
      return Value::Char("");
    case TypeId::kFloat8:
      return Value::Float8(0);
    case TypeId::kTime:
      return Value::Time(TimePoint(0));
    default:
      return Value::Int4(0);
  }
}

}  // namespace

Result<Interval> DmlExecutor::EffectiveValid(
    const std::optional<ValidClause>& valid, const Binding& binding) {
  TimePoint from = env_.now;
  TimePoint to = TimePoint::Forever();
  if (valid.has_value()) {
    TDB_ASSIGN_OR_RETURN(Interval f, eval_.EvalTemporal(*valid->from, binding));
    from = f.from;
    if (valid->at) {
      to = from;
    } else if (valid->to != nullptr) {
      TDB_ASSIGN_OR_RETURN(Interval t, eval_.EvalTemporal(*valid->to, binding));
      to = t.from;
    }
  }
  return Interval(from, to);
}

Result<Row> DmlExecutor::ApplyTargets(const Schema& schema, const Row& base,
                                      const std::vector<TargetItem>& targets,
                                      const Binding& binding) {
  Row row = base;
  for (const TargetItem& item : targets) {
    int idx = schema.FindAttr(item.name);
    if (idx < 0) return Status::Internal("target attr vanished");
    TDB_ASSIGN_OR_RETURN(Value v, eval_.Eval(*item.expr, binding));
    row[static_cast<size_t>(idx)] = std::move(v);
  }
  return row;
}

Result<std::vector<DmlExecutor::Victim>> DmlExecutor::CollectVictims(
    Relation* rel, const Expr* where, const TemporalPred* when,
    const std::vector<BoundVar>& vars) {
  const Schema& schema = rel->schema();
  std::vector<Conjunct> conjuncts;
  SplitWhere(where, &conjuncts);

  AccessChoice choice = ChooseAccess(0, rel, conjuncts, {});
  AccessSpec spec;
  spec.current_only = rel->two_level();  // current versions live in primary
  Binding empty(vars.size(), nullptr);
  switch (choice.kind) {
    case AccessChoice::Kind::kScan:
      spec.kind = AccessSpec::Kind::kScan;
      break;
    case AccessChoice::Kind::kRange: {
      spec.kind = AccessSpec::Kind::kRange;
      spec.lo_inclusive = choice.lo_inclusive;
      spec.hi_inclusive = choice.hi_inclusive;
      if (choice.lo_expr != nullptr) {
        TDB_ASSIGN_OR_RETURN(Value lo, eval_.Eval(*choice.lo_expr, empty));
        spec.lo = std::move(lo);
      }
      if (choice.hi_expr != nullptr) {
        TDB_ASSIGN_OR_RETURN(Value hi, eval_.Eval(*choice.hi_expr, empty));
        spec.hi = std::move(hi);
      }
      break;
    }
    case AccessChoice::Kind::kKeyed:
    case AccessChoice::Kind::kIndexEq: {
      TDB_ASSIGN_OR_RETURN(spec.key, eval_.Eval(*choice.key_expr, empty));
      spec.kind = choice.kind == AccessChoice::Kind::kKeyed
                      ? AccessSpec::Kind::kKeyed
                      : AccessSpec::Kind::kIndexEq;
      spec.index = choice.index;
      break;
    }
  }

  TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, std::move(spec)));
  std::vector<Victim> victims;
  Binding binding(vars.size(), nullptr);
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, src->Next());
    if (!have) break;
    if (!src->ref().IsCurrent(schema)) continue;
    binding[0] = &src->ref();
    if (where != nullptr) {
      TDB_ASSIGN_OR_RETURN(bool ok, eval_.EvalBool(*where, binding));
      if (!ok) continue;
    }
    if (when != nullptr) {
      TDB_ASSIGN_OR_RETURN(bool ok, eval_.EvalPred(*when, binding));
      if (!ok) continue;
    }
    Victim v;
    v.tid = src->ref().tid;
    TDB_ASSIGN_OR_RETURN(v.rec, EncodeRecord(schema, src->ref().FullRow()));
    victims.push_back(std::move(v));
  }
  binding[0] = nullptr;
  return victims;
}

Result<DmlExecutor::Victim> DmlExecutor::Relocate(Relation* rel,
                                                  const Victim& victim) {
  // B-tree splits relocate records, so a Tid captured during victim
  // collection may be stale by the time this victim is mutated (an earlier
  // victim's replace inserted a version and split a leaf).  Re-find the
  // exact record by key + byte equality.
  if (rel->primary()->org() != Organization::kBtree) return victim;
  {
    auto current = rel->FetchPrimary(victim.tid);
    if (current.ok() && *current == victim.rec) return victim;  // still there
  }
  Value key = rel->KeyOf(victim.rec.data());
  TDB_ASSIGN_OR_RETURN(auto cur, rel->primary()->ScanKey(key));
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
    if (!have) break;
    if (cur->record() == victim.rec) {
      Victim moved = victim;
      moved.tid = cur->tid();
      return moved;
    }
  }
  return Status::Internal("btree victim vanished during mutation");
}

Result<ExecResult> DmlExecutor::Append(AppendStmt* stmt,
                                       const BoundStatement& bound) {
  TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt->relation));
  const Schema& schema = rel->schema();

  auto insert_one = [&](const Binding& binding) -> Status {
    Row row(schema.num_attrs());
    for (size_t i = 0; i < schema.num_attrs(); ++i) {
      row[i] = DefaultFor(schema.attr(i));
    }
    // Implicit time attributes.
    TDB_ASSIGN_OR_RETURN(Interval valid, EffectiveValid(stmt->valid, binding));
    if (schema.valid_from_index() >= 0) {
      row[static_cast<size_t>(schema.valid_from_index())] =
          Value::Time(valid.from);
      row[static_cast<size_t>(schema.valid_to_index())] =
          Value::Time(schema.entity_kind() == EntityKind::kEvent ? valid.from
                                                                 : valid.to);
    }
    if (schema.tx_start_index() >= 0) {
      row[static_cast<size_t>(schema.tx_start_index())] =
          Value::Time(env_.now);
      row[static_cast<size_t>(schema.tx_stop_index())] =
          Value::Time(TimePoint::Forever());
    }
    // User attributes from the target list.
    for (const TargetItem& item : stmt->targets) {
      int idx = schema.FindAttr(item.name);
      TDB_ASSIGN_OR_RETURN(Value v, eval_.Eval(*item.expr, binding));
      row[static_cast<size_t>(idx)] = std::move(v);
    }
    TDB_ASSIGN_OR_RETURN(auto rec, EncodeRecord(schema, row));
    Tid tid;
    TDB_RETURN_NOT_OK(rel->InsertPrimary(rec, &tid));
    VersionRef ref;
    ref.SetRow(std::move(row));
    RefreshIntervals(schema, &ref);
    if (ref.IsCurrent(schema)) {
      return rel->IndexInsertCurrent(rec, tid, /*in_history_store=*/false);
    }
    // A retro/post-active append (closed valid interval) is history data.
    return rel->IndexInsertHistory(rec, tid, /*in_history_store=*/false);
  };

  ExecResult out;
  if (bound.vars.empty()) {
    Binding none;
    TDB_RETURN_NOT_OK(insert_one(none));
    out.affected = 1;
  } else if (bound.vars.size() == 1) {
    // append ... (a = t.x, ...) where ... : one insert per qualifying tuple.
    TDB_ASSIGN_OR_RETURN(Relation * src_rel,
                         env_.GetRelation(bound.vars[0].rel->name));
    TDB_ASSIGN_OR_RETURN(
        auto victims,
        CollectVictims(src_rel, stmt->where.get(), stmt->when.get(),
                       bound.vars));
    Binding binding(1, nullptr);
    for (const Victim& v : victims) {
      TDB_ASSIGN_OR_RETURN(
          VersionRef ref,
          DecodeVersion(src_rel->schema(), v.rec.data(), v.rec.size(), v.tid,
                        false));
      binding[0] = &ref;
      TDB_RETURN_NOT_OK(insert_one(binding));
      ++out.affected;
    }
  } else {
    return Status::NotSupported(
        "append from more than one tuple variable is not supported");
  }
  TDB_RETURN_NOT_OK(rel->primary()->pager()->Flush());
  env_.catalog->InvalidateStats(stmt->relation, out.affected);
  out.message = StrPrintf("appended %lld tuples to %s",
                          static_cast<long long>(out.affected),
                          stmt->relation.c_str());
  return out;
}

Status DmlExecutor::RetireVersion(Relation* rel, const Victim& victim,
                                  const Interval& valid_override,
                                  bool has_valid) {
  const Schema& schema = rel->schema();
  DbType type = schema.db_type();
  bool event = schema.entity_kind() == EntityKind::kEvent;
  TimePoint now = env_.now;
  TimePoint t_eff = has_valid ? valid_override.from : now;

  switch (type) {
    case DbType::kStatic:
      TDB_RETURN_NOT_OK(rel->ErasePrimary(victim.tid));
      return rel->IndexRemoveCurrent(victim.rec, victim.tid);

    case DbType::kRollback: {
      std::vector<uint8_t> stamped = victim.rec;
      StampTime(schema, schema.tx_stop_index(), now, &stamped);
      if (rel->two_level()) {
        Tid htid;
        TDB_RETURN_NOT_OK(rel->AppendHistory(stamped, &htid));
        TDB_RETURN_NOT_OK(rel->ErasePrimary(victim.tid));
        return rel->IndexMoveToHistory(victim.rec, victim.tid, htid, true);
      }
      TDB_RETURN_NOT_OK(rel->OverwritePrimary(victim.tid, stamped));
      return rel->IndexMoveToHistory(victim.rec, victim.tid, victim.tid,
                                     false);
    }

    case DbType::kHistorical: {
      if (event) {
        // An event cannot "stop being valid"; deleting one (error
        // correction without transaction time) erases it.
        TDB_RETURN_NOT_OK(rel->ErasePrimary(victim.tid));
        return rel->IndexRemoveCurrent(victim.rec, victim.tid);
      }
      std::vector<uint8_t> stamped = victim.rec;
      StampTime(schema, schema.valid_to_index(), t_eff, &stamped);
      if (rel->two_level()) {
        Tid htid;
        TDB_RETURN_NOT_OK(rel->AppendHistory(stamped, &htid));
        TDB_RETURN_NOT_OK(rel->ErasePrimary(victim.tid));
        return rel->IndexMoveToHistory(victim.rec, victim.tid, htid, true);
      }
      TDB_RETURN_NOT_OK(rel->OverwritePrimary(victim.tid, stamped));
      return rel->IndexMoveToHistory(victim.rec, victim.tid, victim.tid,
                                     false);
    }

    case DbType::kTemporal: {
      // Close the old version in transaction time...
      std::vector<uint8_t> stamped = victim.rec;
      StampTime(schema, schema.tx_stop_index(), now, &stamped);
      // ...and (interval relations) record the corrected version stating
      // the tuple was valid only until t_eff.
      std::vector<uint8_t> corrected = victim.rec;
      bool with_correction = !event;
      if (with_correction) {
        StampTime(schema, schema.valid_to_index(), t_eff, &corrected);
        StampTime(schema, schema.tx_start_index(), now, &corrected);
        StampTime(schema, schema.tx_stop_index(), TimePoint::Forever(),
                  &corrected);
      }
      if (rel->two_level()) {
        Tid htid1;
        TDB_RETURN_NOT_OK(rel->AppendHistory(stamped, &htid1));
        Tid htid2;
        if (with_correction) {
          TDB_RETURN_NOT_OK(rel->AppendHistory(corrected, &htid2));
        }
        TDB_RETURN_NOT_OK(rel->ErasePrimary(victim.tid));
        TDB_RETURN_NOT_OK(
            rel->IndexMoveToHistory(victim.rec, victim.tid, htid1, true));
        if (with_correction) {
          TDB_RETURN_NOT_OK(rel->IndexInsertHistory(corrected, htid2, true));
        }
        return Status::OK();
      }
      TDB_RETURN_NOT_OK(rel->OverwritePrimary(victim.tid, stamped));
      TDB_RETURN_NOT_OK(rel->IndexMoveToHistory(victim.rec, victim.tid,
                                                victim.tid, false));
      if (with_correction) {
        Tid ctid;
        TDB_RETURN_NOT_OK(rel->InsertPrimary(corrected, &ctid));
        TDB_RETURN_NOT_OK(rel->IndexInsertHistory(corrected, ctid, false));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable db type");
}

Result<ExecResult> DmlExecutor::Delete(DeleteStmt* stmt,
                                       const BoundStatement& bound) {
  Relation* rel;
  TDB_ASSIGN_OR_RETURN(rel, env_.GetRelation(bound.vars[0].rel->name));
  TDB_ASSIGN_OR_RETURN(
      auto victims,
      CollectVictims(rel, stmt->where.get(), stmt->when.get(), bound.vars));

  for (const Victim& stale : victims) {
    TDB_ASSIGN_OR_RETURN(Victim v, Relocate(rel, stale));
    Binding binding(bound.vars.size(), nullptr);
    TDB_ASSIGN_OR_RETURN(
        VersionRef ref,
        DecodeVersion(rel->schema(), v.rec.data(), v.rec.size(), v.tid,
                      false));
    binding[0] = &ref;
    TDB_ASSIGN_OR_RETURN(Interval valid, EffectiveValid(stmt->valid, binding));
    TDB_RETURN_NOT_OK(
        RetireVersion(rel, v, valid, stmt->valid.has_value()));
  }
  TDB_RETURN_NOT_OK(rel->primary()->pager()->Flush());
  if (rel->history() != nullptr) {
    TDB_RETURN_NOT_OK(rel->history()->pager()->Flush());
  }
  // A static delete erases its victims; a temporal one closes them.
  const bool erased = rel->schema().db_type() == DbType::kStatic;
  env_.catalog->InvalidateStats(
      bound.vars[0].rel->name,
      erased ? -static_cast<int64_t>(victims.size()) : 0);
  ExecResult out;
  out.affected = static_cast<int64_t>(victims.size());
  out.message = StrPrintf("deleted %lld tuples",
                          static_cast<long long>(out.affected));
  return out;
}

Result<ExecResult> DmlExecutor::Replace(ReplaceStmt* stmt,
                                        const BoundStatement& bound) {
  Relation* rel;
  TDB_ASSIGN_OR_RETURN(rel, env_.GetRelation(bound.vars[0].rel->name));
  const Schema& schema = rel->schema();
  TDB_ASSIGN_OR_RETURN(
      auto victims,
      CollectVictims(rel, stmt->where.get(), stmt->when.get(), bound.vars));

  for (const Victim& stale : victims) {
    TDB_ASSIGN_OR_RETURN(Victim v, Relocate(rel, stale));
    Binding binding(bound.vars.size(), nullptr);
    TDB_ASSIGN_OR_RETURN(
        VersionRef ref,
        DecodeVersion(schema, v.rec.data(), v.rec.size(), v.tid, false));
    binding[0] = &ref;
    TDB_ASSIGN_OR_RETURN(Interval valid, EffectiveValid(stmt->valid, binding));
    TDB_ASSIGN_OR_RETURN(Row new_row,
                         ApplyTargets(schema, ref.FullRow(), stmt->targets,
                                      binding));

    if (schema.db_type() == DbType::kStatic) {
      TDB_ASSIGN_OR_RETURN(auto new_rec, EncodeRecord(schema, new_row));
      bool key_changed =
          rel->layout().has_key() &&
          !rel->KeyOf(new_rec.data()).Equals(rel->KeyOf(v.rec.data()));
      TDB_RETURN_NOT_OK(rel->IndexRemoveCurrent(v.rec, v.tid));
      if (key_changed && rel->primary()->org() != Organization::kHeap) {
        TDB_RETURN_NOT_OK(rel->ErasePrimary(v.tid));
        Tid tid;
        TDB_RETURN_NOT_OK(rel->InsertPrimary(new_rec, &tid));
        TDB_RETURN_NOT_OK(rel->IndexInsertCurrent(new_rec, tid, false));
      } else {
        TDB_RETURN_NOT_OK(rel->OverwritePrimary(v.tid, new_rec));
        TDB_RETURN_NOT_OK(rel->IndexInsertCurrent(new_rec, v.tid, false));
      }
      continue;
    }

    // Versioned relations: retire the old version, then insert the new one.
    TDB_RETURN_NOT_OK(RetireVersion(rel, v, valid, stmt->valid.has_value()));

    // New version timestamps.
    if (schema.valid_from_index() >= 0) {
      new_row[static_cast<size_t>(schema.valid_from_index())] =
          Value::Time(valid.from);
      new_row[static_cast<size_t>(schema.valid_to_index())] = Value::Time(
          schema.entity_kind() == EntityKind::kEvent ? valid.from : valid.to);
    }
    if (schema.tx_start_index() >= 0) {
      new_row[static_cast<size_t>(schema.tx_start_index())] =
          Value::Time(env_.now);
      new_row[static_cast<size_t>(schema.tx_stop_index())] =
          Value::Time(TimePoint::Forever());
    }
    TDB_ASSIGN_OR_RETURN(auto new_rec, EncodeRecord(schema, new_row));
    Tid tid;
    TDB_RETURN_NOT_OK(rel->InsertPrimary(new_rec, &tid));
    TDB_RETURN_NOT_OK(rel->IndexInsertCurrent(new_rec, tid, false));
  }
  TDB_RETURN_NOT_OK(rel->primary()->pager()->Flush());
  if (rel->history() != nullptr) {
    TDB_RETURN_NOT_OK(rel->history()->pager()->Flush());
  }
  // A static replace overwrites in place; a temporal one adds versions.
  const bool in_place = schema.db_type() == DbType::kStatic;
  env_.catalog->InvalidateStats(
      bound.vars[0].rel->name,
      in_place ? 0 : static_cast<int64_t>(victims.size()));
  ExecResult out;
  out.affected = static_cast<int64_t>(victims.size());
  out.message = StrPrintf("replaced %lld tuples",
                          static_cast<long long>(out.affected));
  return out;
}

}  // namespace tdb
