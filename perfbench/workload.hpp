#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "ws/scheduler.hpp"

/// The benchmark's workloads (NOTES.md explains each choice) and their
/// set-up: the inputs a seed selects, validation and the sequential oracle
/// every measured call is checked against.
namespace perfbench {

struct Workload {
  std::string name;
  dws::ws::RunConfig config;
  /// One line naming the inputs `seed` changed, for the run's output.
  std::string seed_note;

  bool is_service() const noexcept { return config.svc.enabled; }
};

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string_view>& workload_names();

/// The inputs of workload `name` for `seed`; nullopt for an unknown name.
/// Seed 0 runs the catalogue trees (SIM200K's own root seed).
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed);

/// ref_storm's inputs run by the sharded core (sim_shards = 3), for the
/// traced run: its record must equal ref_storm's byte for byte, and its time
/// against ref_storm's measures the ws window driver. nullopt for every
/// other workload.
std::optional<Workload> sharded_twin(const Workload& workload);

/// The oracle for one job: its tree and what a sequential walk counts.
struct JobOracle {
  dws::uts::TreeParams tree;
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
};

/// What set-up hands to the measured calls.
struct Setup {
  /// One entry per job, in job-id order (a single-job run has one).
  std::vector<JobOracle> jobs;
  /// Host seconds of the oracle walk alone, and the nodes it visited.
  double oracle_s = 0.0;
  std::uint64_t oracle_nodes = 0;
};

/// Validate the config and walk every job's tree with
/// uts::enumerate_sequential (in parallel across jobs for a stream), under
/// spans "validate" and "oracle". Throws std::runtime_error when the config
/// does not validate.
Setup set_up(const Workload& workload, SpanLog& spans);

}  // namespace perfbench
