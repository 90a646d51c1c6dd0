#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "crypto/uts_rng.hpp"
#include "proto/victim.hpp"
#include "report.hpp"
#include "sim/engine.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "uts/sequential.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 7;

/// Median over kReps of the ns per operation of `body`, which performs
/// `ops` operations and returns a value that depends on all of them.
template <typename Body>
double median_ns_per_op(std::uint64_t ops, Body body) {
  std::vector<double> ns;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    sink += body();
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  // Keep the timed work observable.
  if (sink == 0x5eed5eed5eed5eedull) ns.push_back(0.0);
  return median(std::move(ns));
}

/// The layout victims are drawn on: the whole job, or for a job stream the
/// first job block (every block is a slice of the same machine).
dws::topo::JobLayout probe_layout(const dws::ws::RunConfig& config) {
  dws::topo::JobLayout full(config.machine, config.num_ranks,
                            config.placement, config.procs_per_node,
                            config.origin_cube);
  if (!config.svc.enabled) return full;
  return dws::topo::JobLayout::slice(full, 0, config.svc.ranks_per_job);
}

/// One selector per rank of `latency`'s layout, built by the workload's
/// policy exactly as the peers build theirs.
std::vector<std::unique_ptr<dws::proto::VictimSelector>> selectors(
    const dws::ws::RunConfig& config, const dws::topo::LatencyModel& latency) {
  std::vector<std::unique_ptr<dws::proto::VictimSelector>> out;
  for (dws::topo::Rank r = 0; r < latency.layout().num_ranks(); ++r) {
    out.push_back(dws::proto::make_selector(config.ws, r, latency));
  }
  return out;
}

struct Pair {
  dws::topo::Rank thief = 0;
  dws::topo::Rank victim = 0;
};

struct TopoCost {
  double latency_ns = 0.0;
  double hops_ns = 0.0;
};

class HeldQueue final : public dws::sim::EventSink {
 public:
  explicit HeldQueue(dws::sim::Engine& engine) : engine_(engine) {}

  /// Each event schedules one successor, so the pending count never moves.
  void on_event(const dws::sim::Event& ev) override { schedule(ev.rank); }

  void schedule(std::uint32_t rank) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const auto delay = static_cast<dws::support::SimTime>(1 + (state_ >> 52));
    engine_.schedule_after(delay, *this, dws::sim::EventKind::kWorkerStep,
                           rank);
  }

 private:
  dws::sim::Engine& engine_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/// ns per crypto::UtsRng::spawn, on a chain of children.
double spawn_ns() {
  constexpr std::uint64_t kOps = 200'000;
  return median_ns_per_op(kOps, [] {
    dws::crypto::UtsRng rng = dws::crypto::UtsRng::from_seed(1);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      rng = rng.spawn(static_cast<std::uint32_t>(i & 7));
    }
    return std::uint64_t{rng.rand31()};
  });
}

/// ns per message_latency and per hops() over 2^16 drawn (thief, victim)
/// pairs, priced as a steal request.
TopoCost topo_cost(const dws::ws::RunConfig& config) {
  const dws::topo::JobLayout layout = probe_layout(config);
  const dws::topo::LatencyModel latency(layout, config.latency);
  auto picks = selectors(config, latency);

  constexpr std::size_t kPairs = 1u << 16;
  std::vector<Pair> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; pairs.size() < kPairs; ++i) {
    const auto thief = static_cast<dws::topo::Rank>(i % picks.size());
    pairs.push_back({thief, picks[thief]->next()});
  }

  const std::uint32_t bytes = config.ws.steal_request_bytes;
  TopoCost cost;
  cost.latency_ns = median_ns_per_op(kPairs, [&] {
    std::uint64_t sum = 0;
    for (const Pair& p : pairs) {
      sum += static_cast<std::uint64_t>(
          latency.message_latency(p.thief, p.victim, bytes));
    }
    return sum;
  });
  cost.hops_ns = median_ns_per_op(kPairs, [&] {
    std::uint64_t sum = 0;
    for (const Pair& p : pairs) {
      sum += static_cast<std::uint64_t>(latency.hops(p.thief, p.victim));
    }
    return sum;
  });
  return cost;
}

/// ns per next(), cycling over every rank's selector.
double select_ns(const dws::ws::RunConfig& config) {
  const dws::topo::JobLayout layout = probe_layout(config);
  const dws::topo::LatencyModel latency(layout, config.latency);
  auto picks = selectors(config, latency);
  constexpr std::uint64_t kOps = 1u << 18;
  return median_ns_per_op(kOps, [&] {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      sum += picks[i % picks.size()]->next();
    }
    return sum;
  });
}

/// Events per second of an engine whose queue is held at `depth`.
double engine_events_per_s(std::uint64_t depth) {
  constexpr std::uint64_t kEvents = 2'000'000;
  depth = std::max<std::uint64_t>(depth, 1);
  const double ns = median_ns_per_op(kEvents, [depth] {
    dws::sim::Engine engine;
    HeldQueue queue(engine);
    for (std::uint64_t i = 0; i < depth; ++i) {
      queue.schedule(static_cast<std::uint32_t>(i));
    }
    return engine.run(kEvents) + engine.pending();
  });
  return 1e9 / ns;
}

}  // namespace

LayerCosts probe_layers(const Workload& workload, const Setup& setup,
                        std::uint64_t peak_pending, SpanLog& spans) {
  LayerCosts c;
  const auto span = spans.span("probes");
  {
    const auto s = spans.span("probe.crypto");
    c.spawn_ns = spawn_ns();
  }
  {
    const auto s = spans.span("probe.uts");
    const auto t0 = Clock::now();
    const dws::uts::TreeStats st =
        dws::uts::enumerate_sequential(setup.jobs.front().tree);
    c.seq_nodes_per_s = static_cast<double>(st.nodes) / seconds_since(t0);
  }
  {
    const auto s = spans.span("probe.topo");
    const TopoCost topo = topo_cost(workload.config);
    c.latency_ns = topo.latency_ns;
    c.hops_ns = topo.hops_ns;
  }
  {
    const auto s = spans.span("probe.proto");
    c.select_ns = select_ns(workload.config);
  }
  {
    const auto s = spans.span("probe.sim");
    c.engine_events_per_s = engine_events_per_s(peak_pending);
  }
  return c;
}

void ProtoProbe::on_token_sent(dws::topo::Rank, dws::topo::Rank,
                               const dws::proto::Token&) {
  ++tokens_;
}

void ProtoProbe::on_phase(dws::topo::Rank rank, dws::support::SimTime t,
                          dws::metrics::Phase p) {
  const bool active = p == dws::metrics::Phase::kActive;
  if (!active && active_[rank] != 0) last_idle_ = std::max(last_idle_, t);
  active_[rank] = active ? 1 : 0;
}

void ProtoProbe::on_termination(dws::support::SimTime t) { termination_ = t; }

double ProtoProbe::termination_share(
    dws::support::SimTime makespan) const noexcept {
  if (makespan <= 0) return 0.0;
  return static_cast<double>(termination_ - last_idle_) /
         static_cast<double>(makespan);
}

}  // namespace perfbench
