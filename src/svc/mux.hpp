#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/rank_stats.hpp"
#include "metrics/trace.hpp"
#include "proto/observer.hpp"
#include "proto/peer.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "svc/arrival.hpp"
#include "svc/params.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "ws/scheduler.hpp"

/// The simulator's one executor (DESIGN.md §11, §13): every simulated run —
/// a single job (ws::run_simulation) or a service stream (svc::run_service)
/// — executes as one MuxWorker per rank holding one JobBinding per job. A
/// single-job run is the degenerate stream: one job, id 0, bound on every
/// rank at t = 0 with no controller. It is compiled into dws_ws so
/// run_simulation reaches it; only ws/scheduler.hpp and svc/service.hpp are
/// public surfaces.
namespace dws::svc {

// ---- Control vocabulary ----------------------------------------------------

/// Controller -> rank: a job was admitted; create its binding. The tree is
/// looked up from the shared ServicePlan by job id, and the binding's peer
/// ring is the receiving rank's block of the plan (ServicePlan::block_base;
/// time sharing: the whole pool) — control messages carry neither placement
/// nor payload. Under time sharing every rank receives the admit with `leased`
/// saying whether this rank starts leased to the job; under space sharing
/// only the block's ranks do, always leased.
struct JobAdmit {
  JobId job = 0;
  bool leased = true;
  topo::Rank handoff = 0;  ///< job-local rank to relinquish work to if parked
};

/// Controller -> rank: this rank's lease on `job` changed (time sharing
/// only). A revoke (`leased == false`) carries the job's *current* handoff
/// rank so the parked binding knows where to ship any work it holds now or
/// acquires later; handoff chains formed by stale targets terminate because
/// every hop was parked strictly later than its sender (see
/// JobBinding::activated).
struct LeaseUpdate {
  JobId job = 0;
  bool leased = false;
  topo::Rank handoff = 0;
};

/// What an Envelope carries: steal-protocol traffic (kNone), a JobAdmit or
/// a LeaseUpdate (controller -> rank), or a job-done report (job-local rank
/// 0 -> controller at global rank 0: the job's Mattern token proved per-job
/// quiescence at `Peer::terminated` time).
enum class Control : std::uint8_t { kNone, kAdmit, kLease, kDone };

/// Everything that travels between ranks: the untouched steal protocol
/// vocabulary multiplexed by job id, or a control-plane message in the
/// header fields (`msg` unused). The control fields are flat so an Envelope
/// is a proto::Message plus 16 bytes: every network hop moves one.
struct Envelope {
  proto::Message msg;  ///< control == kNone only
  JobId job = 0;
  Control control = Control::kNone;
  bool leased = false;     ///< kAdmit, kLease
  topo::Rank handoff = 0;  ///< kAdmit, kLease

  static Envelope protocol(JobId job, proto::Message&& msg) {
    return {std::move(msg), job, Control::kNone, false, 0};
  }
  static Envelope admit(const JobAdmit& a) {
    return {proto::Message{}, a.job, Control::kAdmit, a.leased, a.handoff};
  }
  static Envelope lease(const LeaseUpdate& u) {
    return {proto::Message{}, u.job, Control::kLease, u.leased, u.handoff};
  }
  static Envelope done(JobId job) {
    return {proto::Message{}, job, Control::kDone, false, 0};
  }
};

class JobBinding;
class MuxWorker;

/// Every binding of the run, indexed by (job id, global rank); null where
/// the job is not bound. One flat array sized before the run (plan jobs x
/// num_ranks); each slot is written once, by the shard owning the rank, when
/// the rank binds the job — nothing reallocates under a reader, and a
/// delivery finds its binding in one load.
class BindingTable {
 public:
  BindingTable(std::size_t num_jobs, topo::Rank num_ranks)
      : num_ranks_(num_ranks), slots_(num_jobs * num_ranks) {}

  JobBinding* get(JobId job, topo::Rank rank) const noexcept {
    return slots_[index(job, rank)].get();
  }
  std::unique_ptr<JobBinding>& slot(JobId job, topo::Rank rank) noexcept {
    return slots_[index(job, rank)];
  }

 private:
  std::size_t index(JobId job, topo::Rank rank) const noexcept {
    return static_cast<std::size_t>(job) * num_ranks_ + rank;
  }

  std::size_t num_ranks_;
  std::vector<std::unique_ptr<JobBinding>> slots_;
};

/// Routes a network delivery: steal-protocol traffic straight to the
/// destination's binding (one dense-table load), control traffic and
/// traffic for a job the rank has not bound yet to the destination's mux. A
/// concrete functor (not std::function) so Network's delivery dispatch is a
/// direct call.
struct DeliverToMux {
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;
  const BindingTable* bindings = nullptr;
  inline void operator()(topo::Rank dst, Envelope&& env) const;
};

using SvcNetwork = sim::Network<Envelope, DeliverToMux>;

// ---- Shared immutable plan -------------------------------------------------

/// Everything decided before the run starts, shared read-only by every shard:
/// the resolved job stream (a single-job run's one job: id 0, arriving at 0,
/// the config's tree), the global geometry, and (space sharing) the
/// per-block geometry slices. Heap/stack-pinned — the latency models point
/// at the layouts, so the plan must never move.
class ServicePlan {
 public:
  explicit ServicePlan(const ws::RunConfig& config);
  ServicePlan(const ServicePlan&) = delete;
  ServicePlan& operator=(const ServicePlan&) = delete;

  /// First global rank of the block holding rank `r`: a job bound on `r`
  /// spans [block_base(r), block_base(r) + block_width).
  topo::Rank block_base(topo::Rank r) const noexcept {
    return r - r % block_width;
  }
  /// The latency model a job allocated at `base` selects victims with:
  /// its block slice under space sharing, the global model otherwise.
  const topo::LatencyModel& job_latency(topo::Rank base) const noexcept {
    return block_latency.empty() ? latency : block_latency[base / block_width];
  }

  std::vector<JobSpec> jobs;  ///< id-indexed (generate_jobs, or the one job)
  topo::JobLayout layout;     ///< the whole pool's allocation
  topo::LatencyModel latency;
  /// Job block width: ranks_per_job under space sharing, num_ranks under
  /// time sharing and in single-job runs (every job binds the whole pool).
  topo::Rank block_width = 0;
  std::uint32_t num_blocks = 0;  ///< space sharing: num_ranks / block_width
  /// Space sharing only: geometry slices per block, in block order. Sized
  /// exactly at construction — LatencyModel holds pointers into
  /// block_layouts, so neither vector may ever reallocate.
  std::vector<topo::JobLayout> block_layouts;
  std::vector<topo::LatencyModel> block_latency;
};

// ---- Shared mutable run state ----------------------------------------------

/// Per-job scheduling outcomes, id-indexed, shared across shards. Disjoint
/// single-writer fields: admit/base/width are written only by the controller
/// (shard 0) at admission; finish only by the shard owning the job's home
/// rank (job-local 0) at termination. Cross-shard reads happen after join.
struct JobRuntime {
  support::SimTime admit = -1;
  topo::Rank base = 0;
  topo::Rank width = 0;
  support::SimTime finish = -1;
  bool admitted() const noexcept { return admit >= 0; }
};

/// A packaged steal response waiting out its victim-side handling delay
/// before entering the network (EventKind::kDeferredResponse), with the
/// destination already translated to a global rank. Work-carrying responses
/// are kDupOnly (never dropped), refusals kDroppable.
struct PendingSend {
  topo::Rank dst = 0;  ///< global thief rank
  proto::StealResponse resp;
  std::uint32_t bytes = 0;
  fault::MsgClass cls = fault::MsgClass::kDroppable;
};

class Controller;

/// Per-shard execution context (ws::run_shards builds one per shard; a
/// serial run is the one-shard case): the engine/network pair, the shared
/// plan, the run-wide tables, and the slab pool backing deferred responses.
/// `controller` is non-null exactly on the shard owning global rank 0 of a
/// service run (single-job runs have none).
struct ServiceContext {
  sim::Engine* engine = nullptr;
  SvcNetwork* network = nullptr;
  const ws::RunConfig* config = nullptr;
  const ServicePlan* plan = nullptr;
  /// Non-null iff fault injection is active for this run (DESIGN.md §10):
  /// the network consults it per send; bindings consult it for straggler
  /// slowdowns and transient pauses.
  fault::Injector* faults = nullptr;
  /// Optional passive instrumentation (observer.hpp): null, the caller's
  /// observer, or the shard's replay buffer. Service runs attach none.
  proto::RunObserver* observer = nullptr;
  Controller* controller = nullptr;
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;  ///< by rank
  BindingTable* bindings = nullptr;
  JobRuntime* runtimes = nullptr;  ///< shared id-indexed array

  sim::SlabPool<PendingSend> deferred;
};

// ---- Per-(rank, job) protocol binding --------------------------------------

/// One job's presence on one rank: a thin discrete-event binding over the
/// transport-agnostic proto::Peer (over job-local ranks), which owns ALL
/// protocol decisions — steal request/response handling, timeout/retry/
/// backoff, lifelines, and token termination (DESIGN.md §11). What remains
/// here is strictly execution and delivery semantics:
///
///  - the node-expansion loop (kWorkerStep events), charging virtual
///    compute time per node and fault-injected pauses and slowdowns;
///  - MPI-style polling: messages arriving mid-expansion queue in an inbox
///    and are drained at the next poll boundary, each steal request charging
///    steal_handling_cost of victim time (one-sided steals bypass this);
///  - the proto::Transport surface: local ranks in, global envelopes out;
///    deferred responses park in the shard's slab pool until their packaging
///    delay elapses, timers become kStealTimeout/kTokenTimeout events.
///
/// The binding is the sink of its own typed events (kWorkerStart,
/// kWorkerStep, kDeferredResponse, kStealTimeout, kTokenTimeout), so the
/// hot loop dispatches straight to it with no per-event lookup.
///
/// Faithfulness notes (matching §II-A of the paper): workers exchange plain
/// tree nodes in chunks, no continuations; the victim services steal
/// requests *between* node expansions; the thief blocks on its outstanding
/// request and retries (with a new victim) on refusal.
class JobBinding final : public sim::EventSink, private proto::Transport {
 public:
  JobBinding(MuxWorker& mux, const JobSpec& spec, const JobAdmit& admit,
             support::SimTime now);

  /// t = admit: job-local rank 0 seeds the tree root (then immediately
  /// relinquishes it if parked), everyone else starts a discovery session.
  void start(support::SimTime now);
  /// Typed-event dispatch (kWorkerStart / kWorkerStep / kDeferredResponse /
  /// kStealTimeout / kTokenTimeout).
  void on_event(const sim::Event& ev) override;
  /// Network delivery entry point for this job's steal-protocol traffic.
  void on_proto(proto::Message&& msg);
  void on_lease(bool leased, topo::Rank handoff, support::SimTime now);

  bool done() const noexcept { return peer_.done(); }
  std::size_t stack_size() const noexcept { return peer_.stack().size(); }
  const metrics::RankStats& stats() const noexcept { return peer_.stats(); }
  const metrics::RankTrace& trace() const noexcept { return peer_.trace(); }
  JobId job() const noexcept { return spec_.id; }
  /// Virtual time of this binding's first node expansion; -1 if it never
  /// expanded one (the job-level value is the min over its bindings).
  support::SimTime first_compute() const noexcept { return first_compute_; }

 private:
  // proto::Transport — local ranks in, global envelopes out.
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

  MuxWorker& mux_;
  ServiceContext& ctx_;
  const JobSpec& spec_;
  topo::Rank rank_ = 0;     ///< global rank
  topo::Rank base_ = 0;
  topo::Rank width_ = 0;
  topo::Rank local_ = 0;    ///< this rank's job-local id
  topo::Rank handoff_ = 0;  ///< job-local relinquish target while parked
  proto::Peer peer_;

  bool step_scheduled_ = false;
  std::vector<proto::Message> inbox_;  ///< arrived mid-expansion
  support::SimTime per_node_cost_ = 0;
  support::SimTime first_compute_ = -1;
};

// ---- Per-rank multiplexer --------------------------------------------------

/// One simulated rank: binds jobs, applies control-plane envelopes to its
/// bindings, and owns the per-rank state jobs share — the one-shot fault
/// pause and the buffer of proto traffic that arrived before its job's
/// admit (possible under fault jitter, where a peer's first steal request
/// can overtake the controller's admit on a different channel), drained at
/// admission. Bindings persist for the whole run once created; proto
/// traffic to a done binding is dropped.
class MuxWorker {
 public:
  MuxWorker(topo::Rank rank, ServiceContext& ctx);

  /// Control-plane delivery (admit / lease / job done).
  void on_control(const Envelope& env);
  /// Proto traffic for a job not bound here yet: parked until its admit.
  void park(JobId job, proto::Message&& msg);
  /// Create this rank's binding of `a.job` without starting it. Single-job
  /// runs bind job 0 before the run and start it with a kWorkerStart event.
  JobBinding& bind(const JobAdmit& a, support::SimTime now);
  /// Direct-call forms of the control envelopes, used by the controller for
  /// its own rank (the network forbids self-sends).
  void admit(const JobAdmit& a, support::SimTime now);
  void lease(const LeaseUpdate& u, support::SimTime now);

  topo::Rank rank() const noexcept { return rank_; }
  ServiceContext& ctx() noexcept { return ctx_; }
  /// The rank's one-shot transient pause (fault layer): per *rank*, not per
  /// binding — the physical rank stalls once, whichever job's step boundary
  /// crosses the scheduled start first.
  bool take_pause(support::SimTime now);

  /// This rank's binding of `job`; null if the job was never bound here.
  JobBinding* binding(JobId job) const noexcept {
    return ctx_.bindings->get(job, rank_);
  }
  std::size_t pending_messages() const noexcept;

 private:
  topo::Rank rank_;
  ServiceContext& ctx_;
  /// Proto messages that arrived before their job's admit.
  std::unordered_map<JobId, std::vector<proto::Message>> pending_;
  bool pause_taken_ = false;
};

inline void DeliverToMux::operator()(topo::Rank dst, Envelope&& env) const {
  if (env.control != Control::kNone) {
    (*muxes)[dst]->on_control(env);
  } else if (JobBinding* b = bindings->get(env.job, dst)) {
    b->on_proto(std::move(env.msg));
  } else {
    (*muxes)[dst]->park(env.job, std::move(env.msg));
  }
}

// ---- Admission / allocation controller -------------------------------------

/// The scheduler-as-a-service brain, attached to global rank 0 (and thus
/// shard 0): turns kSvcArrival events into admissions, owns the allocation
/// policy (space-shared blocks or time-shared elastic leases), and retires
/// jobs on JobDone. All of its decisions flow from shard-0-local event order,
/// so they are shard-count invariant.
class Controller final : public sim::EventSink {
 public:
  explicit Controller(ServiceContext& ctx);

  /// Schedule every job's kSvcArrival on the controller's engine. Same-time
  /// arrivals fire in job-id order (they are scheduled in id order and the
  /// ordering key falls through to seq).
  void schedule_arrivals();

  void on_event(const sim::Event& ev) override;
  /// A job's home binding reported per-job termination.
  void on_job_done(JobId id, support::SimTime now);

  bool all_done() const noexcept {
    return done_count_ == ctx_.plan->jobs.size();
  }
  std::size_t queued() const noexcept { return queue_.size(); }

 private:
  static constexpr JobId kNoJob = ~JobId{0};

  void try_admit(JobId id, support::SimTime now);
  void admit_space(JobId id, std::uint32_t block, support::SimTime now);
  void admit_time(JobId id, support::SimTime now);
  /// Time sharing: recompute the equal contiguous lease slices over
  /// `active_` and send revokes-then-grants to every rank whose owner
  /// changed. `admitting` suppresses grants for the job whose JobAdmit
  /// (which carries its own lease bit) is being fanned out in this step.
  void rebalance(JobId admitting, support::SimTime now);
  /// Owner job of rank `r` under the current active_ slices; kNoJob if none.
  JobId owner_of(topo::Rank r) const;
  /// Job-local first rank of `id`'s current slice (its handoff target).
  topo::Rank handoff_of(JobId id) const;
  void send_admit(const JobAdmit& a, topo::Rank dst, support::SimTime now);
  void send_lease(const LeaseUpdate& u, topo::Rank dst, support::SimTime now);

  ServiceContext& ctx_;
  std::deque<JobId> queue_;  ///< admission FIFO when the pool is full
  std::vector<std::uint8_t> job_done_;
  std::uint32_t done_count_ = 0;

  // Space sharing.
  std::vector<std::uint8_t> block_free_;

  // Time sharing.
  std::vector<JobId> active_;         ///< sorted by id
  std::vector<JobId> lease_of_rank_;  ///< current owner per rank (kNoJob)
};

}  // namespace dws::svc
