#pragma once

#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/rank_stats.hpp"
#include "metrics/trace.hpp"
#include "proto/chunk_stack.hpp"
#include "proto/message.hpp"
#include "proto/observer.hpp"
#include "proto/peer.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "topo/latency.hpp"
#include "uts/tree.hpp"
#include "ws/config.hpp"

namespace dws::ws {

class Worker;

/// Routes a network delivery to the destination worker. A concrete functor
/// (not std::function) so Network's delivery dispatch is a direct call.
struct DeliverToWorkers {
  std::vector<std::unique_ptr<Worker>>* workers = nullptr;
  void operator()(topo::Rank dst, proto::Message&& msg) const;
};

/// The run's transport, typed on the direct-call delivery functor.
using WsNetwork = sim::Network<proto::Message, DeliverToWorkers>;

/// A packaged steal response waiting out its victim-side handling delay
/// before entering the network (EventKind::kDeferredResponse).
struct PendingSend {
  proto::StealResponse resp;
  topo::Rank thief = 0;
  std::uint32_t bytes = 0;
  /// Loss class for the eventual network send: work-carrying responses are
  /// kDupOnly (never dropped), refusals kDroppable.
  fault::MsgClass cls = fault::MsgClass::kDroppable;
};

/// Shared, immutable-per-run context handed to every worker, plus the one
/// piece of cross-worker mutable state: the termination flag that rank 0
/// sets when the token ring proves global quiescence.
struct RunContext {
  sim::Engine* engine = nullptr;
  WsNetwork* network = nullptr;
  const WsConfig* config = nullptr;
  const uts::TreeParams* tree = nullptr;
  const topo::LatencyModel* latency = nullptr;
  topo::Rank num_ranks = 0;

  /// Optional passive instrumentation (observer.hpp); null when not auditing.
  proto::RunObserver* observer = nullptr;

  /// Non-null iff fault injection is active for this run (DESIGN.md §10):
  /// the network consults it per send; workers consult it for straggler
  /// slowdowns and transient pauses.
  fault::Injector* faults = nullptr;

  /// Deferred steal responses in flight between packaging and send; shared
  /// across workers so slots recycle run-wide.
  sim::SlabPool<PendingSend> deferred;

  bool terminated = false;
  support::SimTime termination_time = 0;
};

/// One simulated MPI rank: a thin discrete-event binding over the
/// transport-agnostic proto::Peer, which owns ALL protocol decisions —
/// steal request/response handling, timeout/retry/backoff, lifelines, and
/// token termination (DESIGN.md §11). What remains here is strictly
/// execution and delivery semantics:
///
///  - the node-expansion loop (kWorkerStep events), charging virtual compute
///    time per node and fault-injected pauses/slowdowns;
///  - MPI-style polling: messages arriving mid-expansion queue in an inbox
///    and are drained at the next poll boundary, each steal request charging
///    steal_handling_cost of victim time (one-sided steals bypass this);
///  - the proto::Transport surface: sends enter sim::Network, deferred
///    responses park in the run's SlabPool until their packaging delay
///    elapses, timers become kStealTimeout/kTokenTimeout events.
///
/// Event-core integration: the worker's continuations are typed events
/// (kWorkerStart, kWorkerStep, kDeferredResponse) dispatched through
/// on_event — the simulation's hot loop schedules POD records, never
/// closures.
///
/// Faithfulness notes (matching §II-A):
///  - no continuations: workers exchange plain tree nodes in chunks;
///  - the victim services steal requests *between* node expansions;
///  - no work-first: the thief blocks on its outstanding request and retries
///    (with a new victim) on refusal;
///  - victim selection is pluggable (the paper's experimental axis).
class Worker final : public sim::EventSink, private proto::Transport {
 public:
  Worker(topo::Rank rank, RunContext& ctx);

  /// Schedule this worker's t = 0 behaviour: rank 0 seeds the tree root and
  /// starts expanding; everyone else starts a work-discovery session.
  void start();

  /// Typed-event dispatch (kWorkerStart / kWorkerStep / kDeferredResponse /
  /// kStealTimeout / kTokenTimeout).
  void on_event(const sim::Event& ev) override;

  /// Network delivery entry point.
  void on_message(proto::Message&& msg);

  const metrics::RankStats& stats() const noexcept { return peer_.stats(); }
  const metrics::RankTrace& trace() const noexcept { return peer_.trace(); }

  /// True once this rank has learnt of global termination.
  bool done() const noexcept { return peer_.done(); }
  std::size_t stack_size() const noexcept { return peer_.stack().size(); }

 private:
  // proto::Transport — the simulator side of the protocol seam.
  void send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
            fault::MsgClass cls) override;
  void send_deferred(support::SimTime delay, topo::Rank to,
                     proto::StealResponse resp, std::uint32_t bytes,
                     fault::MsgClass cls) override;
  void arm_steal_timer(support::SimTime delay,
                       std::uint32_t request_id) override;
  void arm_token_timer(support::SimTime delay,
                       std::uint32_t generation) override;
  void activated() override;
  void terminated(support::SimTime at) override;

  void schedule_step();
  void step();
  /// Serve queued messages at a poll boundary; returns virtual time spent.
  support::SimTime drain_inbox();

  topo::Rank rank_;
  RunContext& ctx_;
  proto::Peer peer_;

  bool step_scheduled_ = false;
  // Arrived while expanding; drained at polls.
  std::vector<proto::Message> inbox_;

  // Fault-layer compute perturbations, resolved once at construction.
  support::SimTime per_node_cost_ = 0;
  bool pause_taken_ = false;
};

}  // namespace dws::ws
