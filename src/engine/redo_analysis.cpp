#include "engine/redo_analysis.hpp"

#include <algorithm>

namespace vdb::engine {

void RedoAnalysis::note(const wal::LogRecord& rec) {
  if (rec.txn.valid()) max_txn = std::max(max_txn, rec.txn.value);
  switch (rec.type) {
    case wal::LogRecordType::kCheckpoint: {
      // The snapshot supersedes anything collected so far for those
      // transactions (it includes all of their ops up to this record).
      // An ended transaction it leaves out is never listed again (snapshots
      // skip end-logged transactions), so only the ones it lists stay.
      std::set<std::uint64_t> still_listed;
      for (const auto& snap : rec.active_txns) {
        max_txn = std::max(max_txn, snap.txn.value);
        if (ended.contains(snap.txn.value)) {
          still_listed.insert(snap.txn.value);
          continue;
        }
        live[snap.txn.value] =
            Txn{snap.ops, 0, snap.prepared, snap.gtxn, snap.coord_shard};
      }
      ended = std::move(still_listed);
      for (const auto& d : rec.coord_decisions) decisions[d.gtxn] = d.commit;
      break;
    }
    case wal::LogRecordType::kCommit:
    case wal::LogRecordType::kAbort:
      live.erase(rec.txn.value);
      ended.insert(rec.txn.value);
      break;
    case wal::LogRecordType::kTxnPrepare: {
      Txn& txn = live[rec.txn.value];
      txn.prepared = true;
      txn.gtxn = rec.gtxn;
      txn.coord_shard = rec.coord_shard;
      break;
    }
    case wal::LogRecordType::kCoordCommit:
    case wal::LogRecordType::kCoordAbort:
      decisions[rec.gtxn] = rec.type == wal::LogRecordType::kCoordCommit;
      break;
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kUpdate:
    case wal::LogRecordType::kDelete:
      if (rec.is_clr) {
        live[rec.txn.value].clrs += 1;
      } else {
        live[rec.txn.value].ops.push_back(
            wal::UndoOp{rec.lsn, rec.type, rec.dml});
      }
      break;
    default:
      break;
  }
}

}  // namespace vdb::engine
