#include "ws/worker.hpp"

#include <utility>

#include "proto/observer.hpp"
#include "support/check.hpp"

namespace dws::ws {

void DeliverToWorkers::operator()(topo::Rank dst,
                                  proto::Message&& msg) const {
  (*workers)[dst]->on_message(std::move(msg));
}

Worker::Worker(topo::Rank rank, RunContext& ctx)
    : rank_(rank),
      ctx_(ctx),
      peer_(*ctx.config,
            proto::Peer::Params{rank, ctx.num_ranks, ctx.faults != nullptr},
            ctx.latency, *this, ctx.observer) {
  per_node_cost_ = ctx_.config->node_cost();
  if (ctx_.faults != nullptr) {
    per_node_cost_ = ctx_.faults->scaled_node_cost(rank_, per_node_cost_);
  }
}

// ---- proto::Transport ------------------------------------------------------

void Worker::send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
                  fault::MsgClass cls) {
  ctx_.network->send(rank_, to, std::move(msg), bytes, cls);
}

void Worker::send_deferred(support::SimTime delay, topo::Rank to,
                           proto::StealResponse resp, std::uint32_t bytes,
                           fault::MsgClass cls) {
  // Packaging happens at a poll boundary; the response enters the network
  // once this and the previously drained requests have been serviced.
  const std::uint32_t handle =
      ctx_.deferred.acquire(PendingSend{std::move(resp), to, bytes, cls});
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kDeferredResponse,
                              rank_, handle);
}

void Worker::arm_steal_timer(support::SimTime delay,
                             std::uint32_t request_id) {
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kStealTimeout,
                              rank_, request_id);
}

void Worker::arm_token_timer(support::SimTime delay,
                             std::uint32_t generation) {
  ctx_.engine->schedule_after(delay, *this, sim::EventKind::kTokenTimeout,
                              rank_, generation);
}

void Worker::activated() { schedule_step(); }

void Worker::terminated(support::SimTime at) {
  DWS_CHECK(!ctx_.terminated);
  ctx_.terminated = true;
  ctx_.termination_time = at;
}

// ---- Event-loop binding ----------------------------------------------------

void Worker::on_event(const sim::Event& ev) {
  switch (ev.kind) {
    case sim::EventKind::kWorkerStart:
      start();
      break;
    case sim::EventKind::kWorkerStep:
      step();
      break;
    case sim::EventKind::kDeferredResponse: {
      // Packaging delay served: the response enters the network now.
      PendingSend send = ctx_.deferred.take(ev.payload);
      ctx_.network->send(rank_, send.thief, std::move(send.resp), send.bytes,
                         send.cls);
      break;
    }
    case sim::EventKind::kStealTimeout:
      peer_.on_steal_timeout(ev.payload, ctx_.engine->now());
      break;
    case sim::EventKind::kTokenTimeout:
      peer_.on_token_timeout(ev.payload, ctx_.engine->now());
      break;
    default:
      DWS_CHECK(false);
  }
}

void Worker::start() {
  DWS_CHECK(ctx_.engine->now() == 0);
  if (rank_ == 0) {
    peer_.seed_root(uts::root_node(*ctx_.tree));
  } else {
    peer_.on_out_of_work(0);
  }
}

void Worker::schedule_step() {
  if (step_scheduled_ || !peer_.active()) return;
  step_scheduled_ = true;
  // A step event fires at a node boundary; the work's cost is charged when
  // the next boundary is scheduled, so the first boundary is "now".
  ctx_.engine->schedule_after(0, *this, sim::EventKind::kWorkerStep, rank_);
}

void Worker::step() {
  step_scheduled_ = false;
  if (!peer_.active()) return;

  // Poll boundary: serve whatever arrived while we were expanding.
  const support::SimTime busy = drain_inbox();
  if (!peer_.active()) return;  // a drained Terminate ended the run

  proto::ChunkStack& stack = peer_.stack();
  if (stack.empty()) {
    // The previous node's work ended exactly at this boundary.
    peer_.on_out_of_work(ctx_.engine->now());
    return;
  }

  // Expand up to poll_interval nodes; their work occupies [now, now + cost],
  // so the next poll boundary lands at the end of it (plus time spent
  // packaging steal responses just now).
  metrics::RankStats& stats = peer_.stats();
  support::SimTime cost = 0;
  for (std::uint32_t i = 0; i < ctx_.config->poll_interval; ++i) {
    const auto node = stack.pop();
    if (!node.has_value()) break;
    ++stats.nodes_processed;
    const std::uint32_t n = uts::num_children(*ctx_.tree, *node);
    if (ctx_.observer) ctx_.observer->on_node_expanded(rank_, *node, n);
    if (n == 0) {
      ++stats.leaves_seen;
    } else {
      for (std::uint32_t c = 0; c < n; ++c) {
        stack.push(uts::child_node(*node, c));
      }
    }
    cost += per_node_cost_;
  }

  // Transient pause (fault injection): the rank stalls once, at the first
  // step boundary past the pause's scheduled start. Idle ranks are already
  // stalled from the work's point of view, so only active time is charged.
  if (ctx_.faults != nullptr && !pause_taken_) {
    if (const auto at = ctx_.faults->pause_start(rank_);
        at.has_value() && ctx_.engine->now() >= *at) {
      pause_taken_ = true;
      cost += ctx_.faults->config().pause_duration;
    }
  }

  // Lifeline extension: surplus generated by this expansion feeds dormant
  // dependents at the same poll boundary, charged like steal packaging.
  if (peer_.has_dependents()) {
    cost += ctx_.config->steal_handling_cost *
            static_cast<support::SimTime>(
                peer_.feed_lifeline_dependents(ctx_.engine->now()));
  }

  step_scheduled_ = true;
  ctx_.engine->schedule_after(busy + cost, *this, sim::EventKind::kWorkerStep,
                              rank_);
}

support::SimTime Worker::drain_inbox() {
  support::SimTime busy = 0;
  // Index-based iteration keeps us safe against vector reallocation.
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    if (peer_.done()) break;  // a drained Terminate ends everything
    proto::Message msg = std::move(inbox_[i]);
    if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
      busy += ctx_.config->steal_handling_cost;
      peer_.on_steal_request(*req, ctx_.engine->now(), busy);
    } else {
      peer_.on_message(std::move(msg), ctx_.engine->now());
    }
  }
  inbox_.clear();
  return busy;
}

void Worker::on_message(proto::Message&& msg) {
  if (peer_.done()) return;
  if (peer_.active()) {
    // One-sided steals bypass the victim's polling loop entirely: the
    // request is serviced at arrival, off the victim's critical path.
    if (ctx_.config->one_sided_steals) {
      if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
        peer_.on_steal_request(*req, ctx_.engine->now(), 0);
        return;
      }
    }
    // Mid-expansion: messages wait for the next poll boundary, exactly like
    // MPI messages wait for the reference implementation's next MPI_Iprobe.
    inbox_.push_back(std::move(msg));
    return;
  }
  // Idle ranks sit in the steal/wait loop and react immediately.
  peer_.on_message(std::move(msg), ctx_.engine->now());
}

}  // namespace dws::ws
