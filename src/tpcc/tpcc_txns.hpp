// The five TPC-C transaction profiles (clauses 2.4-2.8) implemented against
// the engine through the TpccDb access paths.
//
// Each profile returns the commit LSN on success (0 for read-only work).
// The 1% intentionally-invalid New-Order item triggers a real transaction
// rollback, exercising the undo path continuously during every benchmark
// run. Service failures (media errors, instance down) surface as error
// statuses the driver uses to detect fault activation.
//
// The profiles are written once, over a TxnRoute that says which instance
// owns a warehouse's rows and how an interaction's transaction ends. A
// single instance uses the identity route (LocalRoute): one database, one
// transaction. A fleet routes each warehouse to its shard, opens a branch
// when a remote stock line or a remote customer lands on another shard,
// and ends a multi-shard interaction by two-phase commit
// (fleet::FleetTxns). The input draws and the row mutations are the same
// on every route.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "common/status.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_random.hpp"

namespace vdb::tpcc {

enum class TxnType : std::uint8_t {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};
constexpr size_t kTxnTypes = 5;
const char* to_string(TxnType t);

struct TxnOutcome {
  TxnType type;
  bool committed = false;
  /// Rolled back by business rule (invalid item) — counts as a completed
  /// interaction per the spec, not as a failure.
  bool intentional_rollback = false;
  Lsn commit_lsn = 0;
};

/// Where an interaction's rows live and how its transaction ends. One
/// interaction is begin(home), any number of db(w) and txn(w) calls, then
/// exactly one commit() or rollback(). A profile asks txn(w) before it
/// touches a non-home warehouse's rows, so a route can open a branch on
/// w's owner at that instant.
class TxnRoute {
 public:
  /// (shard, commit LSN) of one committed branch.
  using Branch = std::pair<std::uint32_t, Lsn>;

  /// The access paths of the instance that owns warehouse `w`.
  virtual TpccDb& db(std::uint32_t w) = 0;
  /// Opens the interaction's transaction on the home warehouse's owner.
  virtual Result<TxnId> begin(std::uint32_t home) = 0;
  /// The interaction's transaction on `w`'s owner, opened on first use.
  virtual Result<TxnId> txn(std::uint32_t w) = 0;
  /// Commits the interaction and returns the home commit LSN. On failure
  /// the route has already cleaned up.
  virtual Result<Lsn> commit() = 0;
  /// Rolls back everything the interaction opened.
  virtual Status rollback() = 0;

  /// The shard the last interaction ran on; a single instance is shard 0.
  virtual std::uint32_t home_shard() const { return 0; }
  /// After a commit that spanned shards, every branch that committed.
  /// Empty after a commit that stayed on its home shard.
  virtual std::span<const Branch> committed_branches() const { return {}; }

 protected:
  // Routes are owned by their concrete type, never through this interface.
  ~TxnRoute() = default;
};

/// The identity route: every warehouse lives in one database.
class LocalRoute final : public TxnRoute {
 public:
  explicit LocalRoute(TpccDb* db) : db_(db) {}

  TpccDb& db(std::uint32_t) override { return *db_; }
  Result<TxnId> begin(std::uint32_t home) override;
  Result<TxnId> txn(std::uint32_t) override { return txn_; }
  Result<Lsn> commit() override;
  Status rollback() override;

 private:
  TpccDb* db_;
  TxnId txn_{};
};

class TpccTxns {
 public:
  /// Single instance: the identity route over `db`.
  TpccTxns(TpccDb* db, TpccRandom* random)
      : local_(db), route_(&local_), random_(random) {}
  /// Any other route; `route` must outlive this object.
  TpccTxns(TxnRoute* route, TpccRandom* random)
      : local_(nullptr), route_(route), random_(random) {}
  // route_ may point into this object.
  TpccTxns(const TpccTxns&) = delete;
  TpccTxns& operator=(const TpccTxns&) = delete;

  /// Runs one transaction of the given type (inputs drawn per spec).
  Result<TxnOutcome> run(TxnType type, std::uint32_t home_warehouse);

  const TxnRoute& route() const { return *route_; }

  Result<TxnOutcome> new_order(std::uint32_t w);
  Result<TxnOutcome> payment(std::uint32_t w);
  Result<TxnOutcome> order_status(std::uint32_t w);
  Result<TxnOutcome> delivery(std::uint32_t w);
  Result<TxnOutcome> stock_level(std::uint32_t w);

 private:
  /// 60%: by last name (median match); 40%: by NURand id.
  Result<RowId> select_customer(std::uint32_t w, std::uint32_t d);
  /// Rolls the interaction back and propagates the original error.
  /// Rollback failures after instance death are expected and ignored.
  Status fail(Status original);
  /// Commits and reports the outcome; a failed commit is already cleaned
  /// up by the route.
  Result<TxnOutcome> finish(TxnType type);

  LocalRoute local_;
  TxnRoute* route_;
  TpccRandom* random_;
};

}  // namespace vdb::tpcc
