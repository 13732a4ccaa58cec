// Closed-loop TPC-C driver over the whole fleet: tpcc::Driver over
// FleetTxns, the fleet's route. Same card deck, input draws, end-user
// failure detection and commit log as on one instance; rows go to the
// shard that owns their warehouse, and a multi-shard interaction commits
// by two-phase commit. A cross-shard commit logs one (shard, commit LSN)
// per committed branch, so lost transactions can be counted per shard
// after a promotion (a committed interaction is lost on shard s iff its
// commit LSN there lies above what s's recovery salvaged).
#pragma once

#include "fleet/fleet.hpp"
#include "fleet/fleet_txns.hpp"
#include "obs/observability.hpp"
#include "tpcc/tpcc_driver.hpp"

namespace vdb::fleet {

// The fleet's former names for the driver's types, kept because
// vdbbench/main.cpp spells them.
using FleetDriverConfig = tpcc::DriverConfig;
using FleetCommitRecord = tpcc::CommitRecord;
using FleetDriverStats = tpcc::DriverStats;

/// Holds the route in a base of its own, so that it is built before the
/// driver base that runs over it.
struct FleetRoute {
  explicit FleetRoute(Fleet* fleet) : route(fleet) {}
  FleetTxns route;
};

/// The latency histograms go to `fleet_obs`, the fleet's statistics area.
class FleetDriver : private FleetRoute, public tpcc::Driver {
 public:
  FleetDriver(Fleet* fleet, obs::Observability* fleet_obs,
              FleetDriverConfig cfg)
      : FleetRoute(fleet),
        tpcc::Driver(&route, fleet->scale(), &fleet->scheduler(),
                     obs::resolve(fleet_obs), cfg) {}

  FleetTxns& txns() { return route; }
};

}  // namespace vdb::fleet
