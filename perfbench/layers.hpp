#pragma once

#include <cstdint>
#include <vector>

#include "proto/observer.hpp"
#include "report.hpp"
#include "workload.hpp"

/// Per-layer probes of the traced run. Each times calls into one layer's
/// public functions from outside, in isolation and warm, on inputs shaped
/// like the workload's; multiplying a probe's cost by the run's count of
/// such operations gives that layer's estimated share of the run.
namespace perfbench {

struct LayerCosts {
  /// ns per crypto::UtsRng::spawn (one SHA-1 child derivation).
  double spawn_ns = 0.0;
  /// Nodes per second of a single-thread uts::enumerate_sequential walk of
  /// the first job's tree.
  double seq_nodes_per_s = 0.0;
  /// ns per topo::LatencyModel::message_latency and per hops(), over the
  /// (thief, victim) pairs the workload's victim policy draws on its layout
  /// (for a job stream, on one job's block).
  double latency_ns = 0.0;
  double hops_ns = 0.0;
  /// ns per proto::VictimSelector::next() of the workload's policy.
  double select_ns = 0.0;
  /// Events per second of a sim::Engine schedule/step loop whose pending
  /// queue is held at the run's peak depth.
  double engine_events_per_s = 0.0;
};

/// Run every probe, each under its own span.
LayerCosts probe_layers(const Workload& workload, const Setup& setup,
                        std::uint64_t peak_pending, SpanLog& spans);

/// Counts proto-layer observer hooks on a single-job run.
class ProtoProbe final : public dws::proto::RunObserver {
 public:
  explicit ProtoProbe(dws::topo::Rank ranks) : active_(ranks, 0) {}

  void on_token_sent(dws::topo::Rank from, dws::topo::Rank to,
                     const dws::proto::Token& t) override;
  void on_phase(dws::topo::Rank rank, dws::support::SimTime t,
                dws::metrics::Phase p) override;
  void on_termination(dws::support::SimTime t) override;

  std::uint64_t tokens_sent() const noexcept { return tokens_; }
  /// Virtual time from the last rank going idle to global termination, as
  /// a share of `makespan`.
  double termination_share(dws::support::SimTime makespan) const noexcept;

 private:
  std::vector<std::uint8_t> active_;
  std::uint64_t tokens_ = 0;
  dws::support::SimTime last_idle_ = 0;
  dws::support::SimTime termination_ = 0;
};

}  // namespace perfbench
