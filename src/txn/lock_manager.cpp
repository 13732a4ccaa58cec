#include "txn/lock_manager.hpp"

#include <algorithm>

namespace vdb::txn {

Status LockManager::acquire(TxnId txn, const LockTarget& target,
                            LockMode mode) {
  auto it = table_.find(target);
  if (it == table_.end()) {
    table_[target] = Entry{mode, {txn}};
    by_txn_[txn].push_back(target);
    return Status::ok();
  }

  Entry& entry = it->second;
  const bool already_holder =
      std::find(entry.holders.begin(), entry.holders.end(), txn) !=
      entry.holders.end();

  if (already_holder) {
    if (mode == LockMode::kExclusive && entry.mode == LockMode::kShared) {
      if (entry.holders.size() == 1) {
        entry.mode = LockMode::kExclusive;  // upgrade by sole holder
        return Status::ok();
      }
      return make_error(ErrorCode::kLockTimeout, "upgrade conflict");
    }
    return Status::ok();
  }

  if (mode == LockMode::kShared && entry.mode == LockMode::kShared) {
    entry.holders.push_back(txn);
    by_txn_[txn].push_back(target);
    return Status::ok();
  }

  // Wait-die: a requester younger than every holder dies (deadlock
  // avoidance); an older one would be allowed to wait — reported as a
  // timeout the caller may retry.
  const bool younger_than_all =
      std::all_of(entry.holders.begin(), entry.holders.end(),
                  [&](TxnId holder) { return txn.value > holder.value; });
  if (younger_than_all) {
    return make_error(ErrorCode::kDeadlock, "wait-die: younger requester");
  }
  return make_error(ErrorCode::kLockTimeout, "resource busy");
}

void LockManager::release_all(TxnId txn) {
  auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return;
  for (const LockTarget& target : it->second) {
    auto entry_it = table_.find(target);
    if (entry_it == table_.end()) continue;
    auto& holders = entry_it->second.holders;
    holders.erase(std::remove(holders.begin(), holders.end(), txn),
                  holders.end());
    if (holders.empty()) table_.erase(entry_it);
  }
  by_txn_.erase(it);
}

bool LockManager::holds(TxnId txn, const LockTarget& target,
                        LockMode mode) const {
  auto it = table_.find(target);
  if (it == table_.end()) return false;
  if (mode == LockMode::kExclusive && it->second.mode != LockMode::kExclusive) {
    return false;
  }
  return std::find(it->second.holders.begin(), it->second.holders.end(),
                   txn) != it->second.holders.end();
}

}  // namespace vdb::txn
