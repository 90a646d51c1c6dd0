#include "svc/mux.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "uts/tree.hpp"

namespace dws::svc {

// ---- ServicePlan -----------------------------------------------------------

ServicePlan::ServicePlan(const ws::RunConfig& config)
    : jobs(config.svc.enabled
               ? generate_jobs(config.svc, config.tree)
               : std::vector<JobSpec>{JobSpec{0, 0, config.tree}}),
      layout(config.machine, config.num_ranks, config.placement,
             config.procs_per_node, config.origin_cube),
      latency(layout, config.latency) {
  if (config.svc.enabled && config.svc.alloc == AllocPolicy::kSpaceShare) {
    block_width = config.svc.ranks_per_job;
    num_blocks = config.num_ranks / block_width;
    // Exact reservation: the latency models hold pointers into
    // block_layouts, so a reallocation after the first emplace would dangle.
    block_layouts.reserve(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      block_layouts.push_back(
          topo::JobLayout::slice(layout, b * block_width, block_width));
    }
    block_latency.reserve(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      block_latency.emplace_back(block_layouts[b], config.latency);
    }
  } else {
    block_width = config.num_ranks;
    num_blocks = 1;
  }
}

// ---- JobBinding ------------------------------------------------------------

JobBinding::JobBinding(MuxWorker& mux, const JobSpec& spec,
                       const JobAdmit& admit, support::SimTime now)
    : mux_(mux),
      ctx_(mux.ctx()),
      spec_(spec),
      rank_(mux.rank()),
      base_(ctx_.plan->block_base(rank_)),
      width_(ctx_.plan->block_width),
      local_(rank_ - base_),
      handoff_(admit.handoff),
      peer_(ctx_.config->ws,
            proto::Peer::Params{local_, width_, ctx_.faults != nullptr},
            &ctx_.plan->job_latency(base_), *this, ctx_.observer) {
  DWS_CHECK(spec_.id == admit.job);
  // The controller placed service jobs on the same block before admitting.
  DWS_CHECK(!ctx_.config->svc.enabled || ctx_.runtimes[spec_.id].base == base_);
  per_node_cost_ = ctx_.config->ws.node_cost();
  if (ctx_.faults != nullptr) {
    per_node_cost_ = ctx_.faults->scaled_node_cost(rank_, per_node_cost_);
  }
  // Park before start(): a parked local rank 0 still seeds the root but
  // immediately relinquishes it to the handoff rank (see activated()).
  if (!admit.leased) peer_.set_parked(true, now);
}

void JobBinding::start(support::SimTime now) {
  if (local_ == 0) {
    peer_.seed_root(uts::root_node(spec_.tree));
  } else {
    peer_.on_out_of_work(now);
  }
}

// ---- proto::Transport ------------------------------------------------------

void JobBinding::send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
                      fault::MsgClass cls) {
  ctx_.network->send(rank_, base_ + to, Envelope::protocol(spec_.id, std::move(msg)),
                     bytes, cls);
}

void JobBinding::send_deferred(support::SimTime delay, topo::Rank to,
                               proto::StealResponse resp, std::uint32_t bytes,
                               fault::MsgClass cls) {
  // Packaging happens at a poll boundary; the response enters the network
  // once this and the previously drained requests have been serviced.
  const std::uint32_t handle = ctx_.deferred.acquire(
      PendingSend{base_ + to, std::move(resp), bytes, cls});
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kDeferredResponse,
                              rank_, handle);
}

void JobBinding::arm_steal_timer(support::SimTime delay,
                                 std::uint32_t request_id) {
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kStealTimeout,
                              rank_, request_id);
}

void JobBinding::arm_token_timer(support::SimTime delay,
                                 std::uint32_t generation) {
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kTokenTimeout,
                              rank_, generation);
}

void JobBinding::activated() {
  if (peer_.parked()) {
    // Work landed on a parked rank (its lease was revoked before the work
    // arrived): ship everything to the job's current handoff. activated()
    // is a tail call inside the peer, so re-entering it here is safe. The
    // handoff chain terminates because every hop's target was leased when
    // the hop parked — parking epochs strictly increase along the chain.
    peer_.relinquish(handoff_, ctx_.engine->now());
    return;
  }
  schedule_step();
}

void JobBinding::terminated(support::SimTime at) {
  JobRuntime& rt = ctx_.runtimes[spec_.id];
  DWS_CHECK(rt.finish < 0);
  rt.finish = at;
  if (!ctx_.config->svc.enabled) return;  // a single-job run has no controller
  // Report per-job quiescence to the controller. Its own rank takes the
  // direct path (the network refuses self-sends); remote home ranks send a
  // reliable JobDone envelope that rank 0's mux routes to the controller.
  if (base_ == 0) {
    DWS_CHECK(ctx_.controller != nullptr);
    ctx_.controller->on_job_done(spec_.id, ctx_.engine->now());
  } else {
    ctx_.network->send(rank_, 0, Envelope::done(spec_.id),
                       ctx_.config->ws.token_bytes, fault::MsgClass::kReliable);
  }
}

// ---- Event-loop binding ----------------------------------------------------

void JobBinding::on_event(const sim::Event& ev) {
  const support::SimTime now = ctx_.engine->now();
  switch (ev.kind) {
    case sim::EventKind::kWorkerStart:
      start(now);
      break;
    case sim::EventKind::kWorkerStep:
      step();
      break;
    case sim::EventKind::kDeferredResponse: {
      // Packaging delay served: the response enters the network now.
      PendingSend p = ctx_.deferred.take(ev.payload);
      ctx_.network->send(rank_, p.dst,
                         Envelope::protocol(spec_.id, std::move(p.resp)),
                         p.bytes, p.cls);
      break;
    }
    case sim::EventKind::kStealTimeout:
      peer_.on_steal_timeout(ev.payload, now);
      break;
    case sim::EventKind::kTokenTimeout:
      peer_.on_token_timeout(ev.payload, now);
      break;
    default:
      DWS_CHECK(false);
  }
}

void JobBinding::schedule_step() {
  if (step_scheduled_ || !peer_.active()) return;
  step_scheduled_ = true;
  // A step event fires at a node boundary; the work's cost is charged when
  // the next boundary is scheduled, so the first boundary is "now".
  ctx_.engine->schedule_after(0, *this, sim::EventKind::kWorkerStep, rank_);
}

void JobBinding::step() {
  step_scheduled_ = false;
  if (!peer_.active()) return;
  const support::SimTime now = ctx_.engine->now();

  // Poll boundary: serve whatever arrived while we were expanding.
  const support::SimTime busy = drain_inbox();
  if (!peer_.active()) return;  // a drained Terminate ended the job

  proto::ChunkStack& stack = peer_.stack();
  if (stack.empty()) {
    // The previous node's work ended exactly at this boundary.
    peer_.on_out_of_work(now);
    return;
  }
  if (peer_.parked()) {
    // The lease was revoked while this rank was mid-expansion with an empty
    // stack (nothing to relinquish then) and banked work arrived since: a
    // parked rank never expands nodes, so hand it off now.
    peer_.relinquish(handoff_, now);
    return;
  }

  // Expand up to poll_interval nodes; their work occupies [now, now + cost],
  // so the next poll boundary lands at the end of it (plus time spent
  // packaging steal responses just now).
  if (first_compute_ < 0) first_compute_ = now;
  metrics::RankStats& stats = peer_.stats();
  support::SimTime cost = 0;
  for (std::uint32_t i = 0; i < ctx_.config->ws.poll_interval; ++i) {
    const auto node = stack.pop();
    if (!node.has_value()) break;
    ++stats.nodes_processed;
    const std::uint32_t n = uts::num_children(spec_.tree, *node);
    if (ctx_.observer) ctx_.observer->on_node_expanded(local_, *node, n);
    if (n == 0) {
      ++stats.leaves_seen;
    } else {
      for (std::uint32_t c = 0; c < n; ++c) {
        stack.push(uts::child_node(*node, c));
      }
    }
    cost += per_node_cost_;
  }

  // Transient pause (fault injection): per physical rank, once per run —
  // whichever job's step boundary crosses the scheduled start first stalls.
  // Idle ranks are already stalled from the work's point of view, so only
  // active time is charged.
  if (ctx_.faults != nullptr && mux_.take_pause(now)) {
    cost += ctx_.faults->config().pause_duration;
  }

  // Lifeline extension: surplus generated by this expansion feeds dormant
  // dependents at the same poll boundary, charged like steal packaging.
  if (peer_.has_dependents()) {
    cost += ctx_.config->ws.steal_handling_cost *
            static_cast<support::SimTime>(peer_.feed_lifeline_dependents(now));
  }

  step_scheduled_ = true;
  ctx_.engine->schedule_after(busy + cost, *this, sim::EventKind::kWorkerStep,
                              rank_);
}

support::SimTime JobBinding::drain_inbox() {
  support::SimTime busy = 0;
  const support::SimTime now = ctx_.engine->now();
  // Index-based iteration keeps us safe against vector reallocation.
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    if (peer_.done()) break;  // a drained Terminate ends everything
    proto::Message msg = std::move(inbox_[i]);
    if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
      busy += ctx_.config->ws.steal_handling_cost;
      peer_.on_steal_request(*req, now, busy);
    } else {
      peer_.on_message(std::move(msg), now);
    }
  }
  inbox_.clear();
  return busy;
}

void JobBinding::on_proto(proto::Message&& msg) {
  if (peer_.done()) return;
  const support::SimTime now = ctx_.engine->now();
  if (peer_.active()) {
    // One-sided steals bypass the victim's polling loop entirely: the
    // request is serviced at arrival, off the victim's critical path.
    if (ctx_.config->ws.one_sided_steals) {
      if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
        peer_.on_steal_request(*req, now, 0);
        return;
      }
    }
    // Mid-expansion: messages wait for the next poll boundary, exactly like
    // MPI messages wait for the reference implementation's next MPI_Iprobe.
    inbox_.push_back(std::move(msg));
    return;
  }
  // Idle ranks sit in the steal/wait loop and react immediately.
  peer_.on_message(std::move(msg), now);
}

void JobBinding::on_lease(bool leased, topo::Rank handoff,
                          support::SimTime now) {
  handoff_ = handoff;
  if (peer_.done()) return;  // a grant can race a Terminate on another channel
  peer_.set_parked(!leased, now);
  if (!leased && !peer_.stack().empty()) {
    peer_.relinquish(handoff_, now);
  }
}

// ---- MuxWorker -------------------------------------------------------------

MuxWorker::MuxWorker(topo::Rank rank, ServiceContext& ctx)
    : rank_(rank), ctx_(ctx) {}

bool MuxWorker::take_pause(support::SimTime now) {
  if (pause_taken_ || ctx_.faults == nullptr) return false;
  const auto at = ctx_.faults->pause_start(rank_);
  if (!at.has_value() || now < *at) return false;
  pause_taken_ = true;
  return true;
}

std::size_t MuxWorker::pending_messages() const noexcept {
  std::size_t n = 0;
  for (const auto& [job, msgs] : pending_) n += msgs.size();
  return n;
}

void MuxWorker::on_control(const Envelope& env) {
  const support::SimTime now = ctx_.engine->now();
  switch (env.control) {
    case Control::kAdmit:
      admit(JobAdmit{env.job, env.leased, env.handoff}, now);
      break;
    case Control::kLease:
      lease(LeaseUpdate{env.job, env.leased, env.handoff}, now);
      break;
    case Control::kDone:
      DWS_CHECK(rank_ == 0 && ctx_.controller != nullptr);
      ctx_.controller->on_job_done(env.job, now);
      break;
    case Control::kNone:
      DWS_CHECK(false);
  }
}

void MuxWorker::park(JobId job, proto::Message&& msg) {
  pending_[job].push_back(std::move(msg));
}

JobBinding& MuxWorker::bind(const JobAdmit& a, support::SimTime now) {
  std::unique_ptr<JobBinding>& slot = ctx_.bindings->slot(a.job, rank_);
  DWS_CHECK(slot == nullptr);
  slot = std::make_unique<JobBinding>(*this, ctx_.plan->jobs[a.job], a, now);
  return *slot;
}

void MuxWorker::admit(const JobAdmit& a, support::SimTime now) {
  JobBinding& b = bind(a, now);
  b.start(now);
  const auto pit = pending_.find(a.job);
  if (pit != pending_.end()) {
    std::vector<proto::Message> msgs = std::move(pit->second);
    pending_.erase(pit);
    for (proto::Message& m : msgs) {
      if (b.done()) break;
      b.on_proto(std::move(m));
    }
  }
}

void MuxWorker::lease(const LeaseUpdate& u, support::SimTime now) {
  // The admit precedes every lease on the controller's channel (reliable,
  // non-overtaking), so the binding must exist.
  JobBinding* b = binding(u.job);
  DWS_CHECK(b != nullptr);
  b->on_lease(u.leased, u.handoff, now);
}

// ---- Controller ------------------------------------------------------------

Controller::Controller(ServiceContext& ctx) : ctx_(ctx) {
  job_done_.assign(ctx_.plan->jobs.size(), 0);
  if (ctx_.config->svc.alloc == AllocPolicy::kSpaceShare) {
    block_free_.assign(ctx_.plan->num_blocks, 1);
  } else {
    lease_of_rank_.assign(ctx_.config->num_ranks, kNoJob);
  }
}

void Controller::schedule_arrivals() {
  for (const JobSpec& spec : ctx_.plan->jobs) {
    ctx_.engine->schedule_at(spec.arrival, *this, sim::EventKind::kSvcArrival,
                             /*rank=*/0, /*payload=*/spec.id);
  }
}

void Controller::on_event(const sim::Event& ev) {
  DWS_CHECK(ev.kind == sim::EventKind::kSvcArrival);
  try_admit(ev.payload, ctx_.engine->now());
}

void Controller::try_admit(JobId id, support::SimTime now) {
  if (ctx_.config->svc.alloc == AllocPolicy::kSpaceShare) {
    for (std::uint32_t b = 0; b < block_free_.size(); ++b) {
      if (block_free_[b]) {
        admit_space(id, b, now);
        return;
      }
    }
  } else if (active_.size() <
             static_cast<std::size_t>(ctx_.config->num_ranks)) {
    admit_time(id, now);
    return;
  }
  queue_.push_back(id);
}

void Controller::admit_space(JobId id, std::uint32_t block,
                             support::SimTime now) {
  block_free_[block] = 0;
  const topo::Rank width = ctx_.plan->block_width;
  const topo::Rank base = static_cast<topo::Rank>(block) * width;
  JobRuntime& rt = ctx_.runtimes[id];
  rt.admit = now;
  rt.base = base;
  rt.width = width;
  const JobAdmit a{id, /*leased=*/true, /*handoff=*/0};
  for (topo::Rank r = base; r < base + width; ++r) send_admit(a, r, now);
}

void Controller::admit_time(JobId id, support::SimTime now) {
  active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  JobRuntime& rt = ctx_.runtimes[id];
  rt.admit = now;
  rt.base = 0;
  rt.width = ctx_.config->num_ranks;
  rebalance(id, now);
}

void Controller::on_job_done(JobId id, support::SimTime now) {
  DWS_CHECK(!job_done_[id]);
  job_done_[id] = 1;
  ++done_count_;
  if (ctx_.config->svc.alloc == AllocPolicy::kSpaceShare) {
    block_free_[ctx_.runtimes[id].base / ctx_.plan->block_width] = 1;
    while (!queue_.empty()) {
      std::uint32_t free_block = ~std::uint32_t{0};
      for (std::uint32_t b = 0; b < block_free_.size(); ++b) {
        if (block_free_[b]) {
          free_block = b;
          break;
        }
      }
      if (free_block == ~std::uint32_t{0}) break;
      const JobId next = queue_.front();
      queue_.pop_front();
      admit_space(next, free_block, now);
    }
  } else {
    active_.erase(std::lower_bound(active_.begin(), active_.end(), id));
    rebalance(kNoJob, now);
    while (!queue_.empty() &&
           active_.size() < static_cast<std::size_t>(ctx_.config->num_ranks)) {
      const JobId next = queue_.front();
      queue_.pop_front();
      admit_time(next, now);
    }
  }
}

JobId Controller::owner_of(topo::Rank r) const {
  const std::size_t k = active_.size();
  if (k == 0) return kNoJob;
  const topo::Rank n = ctx_.config->num_ranks;
  for (std::size_t i = 0; i < k; ++i) {
    const auto lo = static_cast<topo::Rank>(i * n / k);
    const auto hi = static_cast<topo::Rank>((i + 1) * n / k);
    if (r >= lo && r < hi) return active_[i];
  }
  DWS_CHECK(false);  // slices tile [0, n)
  return kNoJob;
}

topo::Rank Controller::handoff_of(JobId id) const {
  const auto it = std::lower_bound(active_.begin(), active_.end(), id);
  DWS_CHECK(it != active_.end() && *it == id);
  const auto i = static_cast<std::size_t>(it - active_.begin());
  return static_cast<topo::Rank>(i * ctx_.config->num_ranks /
                                 active_.size());
}

void Controller::rebalance(JobId admitting, support::SimTime now) {
  const topo::Rank n = ctx_.config->num_ranks;
  const topo::Rank handoff_admit =
      admitting != kNoJob ? handoff_of(admitting) : 0;
  // Per rank: revoke the old lease before anything else on the channel, so
  // the binding parks (and relinquishes) before the new owner's grant or
  // admit arrives. Ascending rank order keeps the send sequence — and with
  // it every fault draw and congestion fold — deterministic.
  for (topo::Rank r = 0; r < n; ++r) {
    const JobId oldj = lease_of_rank_[r];
    const JobId newj = owner_of(r);
    if (oldj != newj) {
      if (oldj != kNoJob && !job_done_[oldj]) {
        send_lease(LeaseUpdate{oldj, false, handoff_of(oldj)}, r, now);
      }
      lease_of_rank_[r] = newj;
    }
    if (admitting != kNoJob) {
      send_admit(JobAdmit{admitting, newj == admitting, handoff_admit},
                 r, now);
    }
    if (oldj != newj && newj != kNoJob && newj != admitting) {
      send_lease(LeaseUpdate{newj, true, handoff_of(newj)}, r, now);
    }
  }
}

void Controller::send_admit(const JobAdmit& a, topo::Rank dst,
                            support::SimTime now) {
  if (dst == 0) {
    (*ctx_.muxes)[0]->admit(a, now);
    return;
  }
  ctx_.network->send(0, dst, Envelope::admit(a),
                     ctx_.config->ws.steal_request_bytes,
                     fault::MsgClass::kReliable);
}

void Controller::send_lease(const LeaseUpdate& u, topo::Rank dst,
                            support::SimTime now) {
  if (dst == 0) {
    (*ctx_.muxes)[0]->lease(u, now);
    return;
  }
  ctx_.network->send(0, dst, Envelope::lease(u),
                     ctx_.config->ws.steal_request_bytes,
                     fault::MsgClass::kReliable);
}

}  // namespace dws::svc
