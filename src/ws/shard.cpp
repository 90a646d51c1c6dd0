#include "ws/shard.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "proto/replay.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "support/check.hpp"
#include "topo/partition.hpp"

namespace dws::ws {

namespace {

constexpr support::SimTime kNever = std::numeric_limits<support::SimTime>::max();

/// One cross-shard message parked between the sender's window and the
/// receiver's drain: the precomputed (clamped) arrival time, the sender's
/// virtual time at the send (the injected event's t_sched), the sending rank
/// (the event's ordering-refinement `src` field), and the payload.
struct MailEntry {
  support::SimTime arrival = 0;
  support::SimTime t_sched = 0;
  topo::Rank src = 0;
  topo::Rank dst = 0;
  svc::Envelope msg;
};

/// One (src shard, dst shard) mailbox. Written only by the src thread during
/// its execution phase, read and cleared only by the dst thread during its
/// drain phase; the window barriers separate the two, so no atomics are
/// needed — the alignment just keeps neighbouring slots off one cache line.
struct alignas(64) MailSlot {
  std::vector<MailEntry> entries;
};

/// The sending side of the mailbox fabric: classifies destination ranks and
/// appends cross-shard sends to this shard's outbound row.
class ShardRouter final : public svc::SvcNetwork::Router {
 public:
  ShardRouter(const std::vector<std::uint32_t>& shard_of_rank,
              std::uint32_t my_shard, MailSlot* row)
      : shard_of_rank_(&shard_of_rank), my_shard_(my_shard), row_(row) {}

  bool is_remote(topo::Rank dst) const override {
    return (*shard_of_rank_)[dst] != my_shard_;
  }
  void post(topo::Rank dst, support::SimTime arrival, support::SimTime t_sched,
            topo::Rank src, svc::Envelope&& msg) override {
    row_[(*shard_of_rank_)[dst]].entries.push_back(
        MailEntry{arrival, t_sched, src, dst, std::move(msg)});
  }

 private:
  const std::vector<std::uint32_t>* shard_of_rank_;
  std::uint32_t my_shard_;
  MailSlot* row_;  // this shard's S outbound slots
};

/// Everything one shard owns: its engine, its private fault injector, the
/// network over the run's global latency model, the executor context its
/// muxes share, and (multi-shard runs only) its router, observer buffer and
/// the per-window published next-event time.
///
/// The injector is shard-private: message draws are keyed per channel and a
/// channel's sends all happen on the sending rank's shard, so S private
/// injectors make exactly the serial injector's decisions; straggler and
/// pause assignments are pure functions of (seed, num_ranks) every copy
/// agrees on.
struct Shard {
  Shard(std::uint32_t id, const RunConfig& config,
        const topo::LatencyModel& latency, svc::DeliverToMux deliver,
        sim::CongestionParams congestion)
      : engine(id),
        injector(config.fault, config.num_ranks),
        network(engine, latency, std::move(deliver), congestion, faults()) {}

  fault::Injector* faults() noexcept {
    return injector.enabled() ? &injector : nullptr;
  }

  sim::Engine engine;
  fault::Injector injector;
  svc::SvcNetwork network;
  svc::ServiceContext ctx;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<proto::BufferedObserver> buffer;
  support::SimTime next_time = kNever;
};

/// The conservative window loop over S >= 2 shards, one thread each. Per
/// window, every shard thread:
///   1. (thread 0 only) replays the previous window's buffered observer
///      hooks, merged time-ordered, into the downstream observer;
///   2. drains its inbound mailboxes into its engine (Engine::inject with
///      the sender's ordering key), in ascending source-shard order — the
///      deterministic global merge rule;
///   3. publishes its next event time and arrives at the sync barrier,
///      whose completion computes the window end
///      w_end = min(next times) + lookahead (or declares the run done);
///   4. executes every local event with time < w_end and flushes lazily
///      retired channels;
///   5. arrives at the exec barrier, which makes this window's mailbox
///      writes visible to the next drain.
///
/// Any message sent during a window arrives at or after w_end (the
/// lookahead is a static lower bound on cut latency), so drains at window
/// granularity can never deliver into a shard's past — the conservative
/// property that replaces null messages (DESIGN.md §12). The first error
/// any shard throws stops the loop and is rethrown after every thread
/// joined.
void run_windows(std::vector<std::unique_ptr<Shard>>& shards,
                 std::vector<MailSlot>& mail, support::SimTime lookahead,
                 sim::CongestionLedger* ledger,
                 proto::RunObserver* observer) {
  const auto num_shards = static_cast<std::uint32_t>(shards.size());
  std::vector<proto::BufferedObserver*> buffers;
  for (const auto& s : shards) buffers.push_back(s->buffer.get());
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  auto record_error = [&]() {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    failed.store(true, std::memory_order_release);
  };

  support::SimTime w_end = 0;
  bool done = false;
  std::barrier sync(num_shards, [&]() noexcept {
    // Fold every shard's congestion flight loads into the shared ledger
    // first — in ascending shard order, so the double sums are folded in one
    // deterministic sequence — and before the done check, so the final
    // window's flights still reach max_boundary_load.
    if (ledger != nullptr) {
      for (const auto& s : shards) s->network.drain_pending_loads(*ledger);
    }
    support::SimTime t_min = kNever;
    for (const auto& s : shards) t_min = std::min(t_min, s->next_time);
    if (t_min == kNever || failed.load(std::memory_order_acquire)) {
      done = true;
      return;
    }
    w_end = t_min > kNever - lookahead ? kNever : t_min + lookahead;
  });
  std::barrier exec_done(num_shards);

  auto shard_main = [&](std::uint32_t me) {
    Shard& sh = *shards[me];
    while (true) {
      try {
        if (!failed.load(std::memory_order_acquire)) {
          // Single-threaded observer fan-in. Runs concurrently with the
          // other shards' drains, which is safe: replay touches only hook
          // buffers (written during execution phases), drains touch only
          // mailboxes and engines. The sync barrier below keeps the next
          // execution phase from starting until the replay is finished.
          if (me == 0 && observer != nullptr) {
            proto::BufferedObserver::replay_merged(buffers, *observer);
          }
          for (std::uint32_t src = 0; src < num_shards; ++src) {
            if (src == me) continue;
            auto& slot =
                mail[static_cast<std::size_t>(src) * num_shards + me];
            for (auto& entry : slot.entries) {
              sh.network.accept_remote(entry.arrival, entry.t_sched, src,
                                       entry.src, entry.dst,
                                       std::move(entry.msg));
            }
            slot.entries.clear();
          }
          sh.next_time = sh.engine.next_event_time(kNever);
        } else {
          sh.next_time = kNever;
        }
      } catch (...) {
        record_error();
        sh.next_time = kNever;
      }
      sync.arrive_and_wait();
      if (done) break;
      try {
        sh.engine.run_until(w_end);
        sh.network.flush_retirements();
      } catch (...) {
        record_error();
      }
      exec_done.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    threads.emplace_back(shard_main, s);
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

RunResult run_shards(const RunConfig& config, const svc::ServicePlan& plan,
                     RunHost& host, proto::RunObserver* observer) {
  // Re-anchor the congestion capacity when it was requested as a scale of
  // the allocation size and the ranks changed since (sweep axes do this).
  sim::CongestionParams congestion = config.congestion;
  if (congestion.enabled && config.congestion_scale > 0.0) {
    congestion.capacity_hops =
        config.congestion_scale * 5.0 *
        static_cast<double>(config.num_ranks / config.procs_per_node);
  }

  // A one-node job degenerates to one shard whatever sim_shards asks for.
  const topo::LatencyModel& latency = plan.latency;
  topo::ShardPartition part =
      topo::partition_ranks(plan.layout, config.latency, config.sim_shards);
  const std::uint32_t num_shards = part.num_shards;
  const bool windowed = num_shards > 1;

  // Shared congestion ledger: one per windowed run, read lock-free by every
  // shard (reads target boundaries at least one window old) and written only
  // inside the sync barrier. Clamping the lookahead to the window is what
  // guarantees that staleness bound — with the default window (one
  // network_base) the clamp is a no-op, since every partition's lookahead
  // is a min over cut latencies that include network_base. A one-shard
  // network owns its ledger instead.
  std::unique_ptr<sim::CongestionLedger> ledger;
  if (windowed && congestion.enabled) {
    const support::SimTime window =
        sim::congestion_window(congestion, latency.params());
    ledger = std::make_unique<sim::CongestionLedger>(window);
    part.lookahead = std::min(part.lookahead, window);
    DWS_CHECK(part.lookahead > 0);
  }

  std::vector<MailSlot> mail(
      windowed ? static_cast<std::size_t>(num_shards) * num_shards : 0);
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);
  // The run-wide executor state every shard's context points into: the
  // rank-indexed muxes and (job, rank) bindings (each shard builds and only
  // ever touches its own ranks' entries) and the id-indexed job runtimes.
  std::vector<std::unique_ptr<svc::MuxWorker>> muxes(config.num_ranks);
  svc::BindingTable bindings(plan.jobs.size(), config.num_ranks);
  std::vector<svc::JobRuntime> runtimes(plan.jobs.size());

  for (std::uint32_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>(
        s, config, latency, svc::DeliverToMux{&muxes, &bindings}, congestion);
    proto::RunObserver* shard_observer = observer;
    if (windowed) {
      shard->router = std::make_unique<ShardRouter>(
          part.shard_of_rank, s,
          &mail[static_cast<std::size_t>(s) * num_shards]);
      shard->network.set_router(shard->router.get());
      if (ledger) shard->network.set_shared_ledger(ledger.get());
      if (observer != nullptr) {
        sim::Engine* engine = &shard->engine;
        shard->buffer = std::make_unique<proto::BufferedObserver>(
            [engine] { return engine->now(); });
        shard_observer = shard->buffer.get();
      }
    }
    svc::ServiceContext& ctx = shard->ctx;
    ctx.engine = &shard->engine;
    ctx.network = &shard->network;
    ctx.config = &config;
    ctx.plan = &plan;
    ctx.faults = shard->faults();
    ctx.observer = shard_observer;
    ctx.muxes = &muxes;
    ctx.bindings = &bindings;
    ctx.runtimes = runtimes.data();
    for (topo::Rank r : part.shard_ranks[s]) {
      muxes[r] = std::make_unique<svc::MuxWorker>(r, ctx);
    }
    host.populate(ctx, part.shard_ranks[s]);
    shards.push_back(std::move(shard));
  }

  if (windowed) {
    run_windows(shards, mail, part.lookahead, ledger.get(), observer);
    for (const auto& slot : mail) DWS_CHECK(slot.entries.empty());
  } else {
    shards[0]->engine.run();
  }

  // Nothing left parked: no deferred response, and no proto message waiting
  // for a job that never got bound.
  for (const auto& sh : shards) DWS_CHECK(sh->ctx.deferred.in_use() == 0);
  for (const auto& mux : muxes) DWS_CHECK(mux->pending_messages() == 0);

  RunResult result = host.finish(bindings, runtimes);

  result.shards_used = num_shards;
  for (const auto& sh : shards) {
    const sim::NetworkStats& ns = sh->network.stats();
    result.network.messages += ns.messages;
    result.network.bytes += ns.bytes;
    result.network.intra_node_messages += ns.intra_node_messages;
    result.network.max_load_hops =
        std::max(result.network.max_load_hops, ns.max_load_hops);
    result.network.peak_channels += ns.peak_channels;
    // Channels are sender-owned and disjoint across shards, so summing the
    // per-shard injectors reproduces the serial injector's totals exactly.
    const fault::FaultStats& fs = sh->injector.stats();
    result.faults.dropped_messages += fs.dropped_messages;
    result.faults.dropped_bytes += fs.dropped_bytes;
    result.faults.duplicated_messages += fs.duplicated_messages;
    result.faults.duplicated_bytes += fs.duplicated_bytes;
    result.engine_events += sh->engine.events_executed();
    result.engine_peak_pending = std::max<std::uint64_t>(
        result.engine_peak_pending, sh->engine.max_pending());
    result.merge_ambiguities += sh->engine.merge_ambiguities();
  }
  if (ledger) {
    // Deferred mode leaves per-shard NetworkStats::max_load_hops at 0; the
    // run-wide peak lives in the shared ledger.
    result.network.max_load_hops = ledger->max_boundary_load();
  }
  return result;
}

}  // namespace dws::ws
