#include "txn/txn_manager.hpp"

#include <algorithm>

namespace vdb::txn {

TxnManager::TxnManager(RollbackSegmentConfig cfg) : cfg_(cfg) {
  segments_.resize(cfg_.count);
  for (std::uint32_t i = 0; i < cfg_.count; ++i) {
    segments_[i].index = i;
    segments_[i].capacity = cfg_.bytes_each;
    segments_[i].online = cfg_.online;
  }
}

Result<TxnId> TxnManager::begin() {
  // Least-loaded online segment.
  RollbackSegment* best = nullptr;
  for (auto& seg : segments_) {
    if (!seg.online) continue;
    if (best == nullptr || seg.active_txns < best->active_txns) best = &seg;
  }
  if (best == nullptr) {
    return make_error(ErrorCode::kOffline, "no rollback segment online");
  }
  Transaction txn;
  txn.id = TxnId{next_id_++};
  txn.rollback_segment = best->index;
  best->active_txns += 1;
  const TxnId id = txn.id;
  active_[id] = std::move(txn);
  return id;
}

Result<const wal::UndoOp*> TxnManager::record_op(TxnId id, wal::UndoOp op) {
  VDB_ASSIGN_OR_RETURN(Transaction * txn, get(id));
  const std::uint64_t bytes =
      op.change.before.size() + op.change.after.size() + 64;
  RollbackSegment& seg = segments_[txn->rollback_segment];
  if (seg.used + bytes > seg.capacity) {
    return make_error(ErrorCode::kOutOfSpace,
                      "rollback segment " + std::to_string(seg.index) +
                          " out of space");
  }
  seg.used += bytes;
  txn->undo_bytes += bytes;
  if (txn->first_lsn == kInvalidLsn) txn->first_lsn = op.lsn;
  txn->undo.push_back(std::move(op));
  return &txn->undo.back();
}

Status TxnManager::mark_committed(TxnId id, Lsn commit_lsn) {
  VDB_ASSIGN_OR_RETURN(Transaction * txn, get(id));
  RollbackSegment& seg = segments_[txn->rollback_segment];
  seg.used -= std::min(seg.used, txn->undo_bytes);
  seg.active_txns -= 1;
  txn->state = TxnState::kCommitted;
  txn->commit_lsn = commit_lsn;
  active_.erase(id);
  return Status::ok();
}

Status TxnManager::mark_aborted(TxnId id) {
  VDB_ASSIGN_OR_RETURN(Transaction * txn, get(id));
  RollbackSegment& seg = segments_[txn->rollback_segment];
  seg.used -= std::min(seg.used, txn->undo_bytes);
  seg.active_txns -= 1;
  txn->state = TxnState::kAborted;
  active_.erase(id);
  return Status::ok();
}

Result<Transaction*> TxnManager::get(TxnId id) {
  auto it = active_.find(id);
  if (it == active_.end()) {
    return make_error(ErrorCode::kNotFound, "no such active transaction");
  }
  return &it->second;
}

bool TxnManager::is_active(TxnId id) const { return active_.contains(id); }

Status TxnManager::mark_end_logged(TxnId id) {
  VDB_ASSIGN_OR_RETURN(Transaction * txn, get(id));
  txn->end_logged = true;
  return Status::ok();
}

Status TxnManager::mark_prepared(TxnId id, std::uint64_t gtxn,
                                 std::uint32_t coord_shard, Lsn prepare_lsn) {
  VDB_ASSIGN_OR_RETURN(Transaction * txn, get(id));
  txn->prepared = true;
  txn->gtxn = gtxn;
  txn->coord_shard = coord_shard;
  txn->prepare_lsn = prepare_lsn;
  return Status::ok();
}

std::vector<wal::TxnSnapshot> TxnManager::snapshot_active() const {
  std::vector<wal::TxnSnapshot> out;
  out.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    if (txn.end_logged) continue;
    wal::TxnSnapshot snap;
    snap.txn = id;
    snap.ops = txn.undo;
    snap.prepared = txn.prepared;
    snap.gtxn = txn.gtxn;
    snap.coord_shard = txn.coord_shard;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const wal::TxnSnapshot& a, const wal::TxnSnapshot& b) {
              return a.txn.value < b.txn.value;
            });
  return out;
}

Status TxnManager::set_segment_offline(std::uint32_t index) {
  if (index >= segments_.size()) {
    return make_error(ErrorCode::kNotFound, "no such rollback segment");
  }
  segments_[index].online = false;
  return Status::ok();
}

Status TxnManager::set_segment_online(std::uint32_t index) {
  if (index >= segments_.size()) {
    return make_error(ErrorCode::kNotFound, "no such rollback segment");
  }
  segments_[index].online = true;
  return Status::ok();
}

void TxnManager::restore_next_id(std::uint64_t next) {
  next_id_ = std::max(next_id_, next);
}

void TxnManager::clear() {
  active_.clear();
  for (auto& seg : segments_) {
    seg.used = 0;
    seg.active_txns = 0;
  }
}

}  // namespace vdb::txn
