#pragma once

#include <memory>
#include <vector>

#include "proto/observer.hpp"
#include "svc/mux.hpp"
#include "topo/allocation.hpp"
#include "ws/scheduler.hpp"

namespace dws::ws {

/// The layer-specific part of a run, supplied to run_shards by
/// ws::run_simulation (one job bound on every rank at t = 0) and by
/// svc::run_service (a controller admitting a job stream).
class RunHost {
 public:
  /// Called once per shard, in shard order, before any event runs. `ctx` is
  /// wired to the shard's engine, network, fault injector and observer and
  /// to the run-wide mux table, and the muxes of `ranks` (ascending) are
  /// built; populate binds jobs or attaches the controller and schedules
  /// the shard's t = 0 events.
  virtual void populate(svc::ServiceContext& ctx,
                        const std::vector<topo::Rank>& ranks) = 0;
  /// Called after the last event, while every shard is still alive: the
  /// layer's post-run checks and the per-rank and per-job results.
  /// `runtimes` is indexed by job id.
  virtual RunResult finish(const svc::BindingTable& bindings,
                           const std::vector<svc::JobRuntime>& runtimes) = 0;

 protected:
  ~RunHost() = default;
};

/// The one run driver (DESIGN.md §12): executes a simulated run of `plan`
/// over the shards topo::partition_ranks cuts for config.sim_shards, with
/// one svc::MuxWorker per rank, and folds the network, fault and engine
/// counters into the host's RunResult. After the last event it checks that
/// no deferred response or pre-admit message was left parked.
///
/// One shard (sim_shards == 1, or a job on a single node) is the plain
/// event loop: no router, no mailboxes, no threads; the engine runs on the
/// calling thread and `observer` reaches the bindings directly. With S >= 2
/// shards each gets a router into per-shard-pair mailboxes and, when an
/// observer is attached, a BufferedObserver replayed in merged order, and
/// the shards advance under a conservative window loop. With congestion
/// enabled they share one CongestionLedger and the lookahead is clamped to
/// its window, so reads only ever hit sealed boundaries. For every
/// configuration validate() admits the result is byte-identical at every
/// shard count — the differential suites in tests/audit enforce this at
/// shard counts {1, 2, 4, 8}, including fault- and congestion-enabled
/// configs.
///
/// The plan's layout and latency model are the run's shared immutable
/// geometry; shard threads only read them.
RunResult run_shards(const RunConfig& config, const svc::ServicePlan& plan,
                     RunHost& host, proto::RunObserver* observer);

}  // namespace dws::ws
