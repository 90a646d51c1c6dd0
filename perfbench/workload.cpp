#include "workload.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "svc/arrival.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"

namespace perfbench {

namespace {

using dws::ws::RunConfig;

// Root seeds whose SIM200K tree has the catalogue tree's size to within 1%
// (224,133 nodes): the catalogue's own root seed 5, then the first 15 others
// found walking root seeds upwards from 0. Binomial trees this close to
// critical vary by about 22% in size between root seeds, which would swamp
// every timing; picking among size-matched trees lets the seed change the
// tree's shape while the work stays a stated constant.
constexpr std::array<std::uint32_t, 16> kSim200kRoots = {
    5,   3,   72,  92,  122, 128, 130, 167,
    207, 280, 292, 294, 337, 386, 410, 433};

// svc.seed values whose 32-job stream has the shape NOTES.md states: 8
// SIM500K jobs and a SIM200K job last, the last arrival within 5% of 32 mean
// gaps, total nodes within 3% of 12.6M, and median and 22nd-smallest job
// sizes within 4% of 210k and 255k nodes. These are properties of the input
// alone; found by walking svc.seed upwards from 1 and from 200000.
constexpr std::array<std::uint64_t, 10> kServiceSeeds = {
    675, 1010, 2451, 2772, 3011, 3043, 3060, 200477, 200490, 201374};

constexpr std::uint32_t kChunk = 4;

// 2048 ranks, not the 4096 of the ROADMAP's profile: still deep in the storm
// (about 22 refused steals per node), but a call takes about 5 s instead of
// 20-30 s, so one run measures several calls (NOTES.md).
constexpr dws::topo::Rank kStormRanks = 2048;
// Shards of ref_storm's sharded twin: one fewer than the 4-vCPU host that set
// the bounds has cores, so one vCPU kept busy by another process does not
// stall every barrier window (NOTES.md).
constexpr std::uint32_t kShards = 3;

constexpr dws::topo::Rank kServiceRanks = 256;
constexpr dws::topo::Rank kServiceRanksPerJob = 64;
constexpr std::uint32_t kServiceJobs = 32;
constexpr dws::support::SimTime kServiceMeanGap = 8'000'000;  // 8 ms

/// The paper's Reference at scale: round robin, one chunk of 4 per steal,
/// one rank per node, congestion on.
RunConfig storm_config(std::uint64_t seed) {
  RunConfig c;
  c.tree = dws::uts::tree_by_name("SIM200K");
  c.tree.root_seed = kSim200kRoots[seed % kSim200kRoots.size()];
  c.num_ranks = kStormRanks;
  c.placement = dws::topo::Placement::kOnePerNode;
  c.ws.victim_policy = dws::ws::VictimPolicy::kRoundRobin;
  c.ws.steal_amount = dws::ws::StealAmount::kOneChunk;
  c.ws.chunk_size = kChunk;
  c.ws.seed = seed + 1;
  c.enable_congestion(1.0);
  return c;
}

/// A Poisson job stream space-shared in 64-rank blocks, Tofu Half, chunk 4.
RunConfig service_config(std::uint64_t seed) {
  RunConfig c;
  c.tree = dws::uts::tree_by_name("SIM200K");
  c.num_ranks = kServiceRanks;
  c.placement = dws::topo::Placement::kOnePerNode;
  c.ws.victim_policy = dws::ws::VictimPolicy::kTofuSkewed;
  c.ws.steal_amount = dws::ws::StealAmount::kHalf;
  c.ws.chunk_size = kChunk;
  c.ws.seed = seed + 1;
  c.enable_congestion(1.0);
  c.svc.enabled = true;
  c.svc.seed = kServiceSeeds[seed % kServiceSeeds.size()];
  c.svc.num_jobs = kServiceJobs;
  c.svc.arrival = dws::svc::ArrivalKind::kPoisson;
  c.svc.mean_interarrival = kServiceMeanGap;
  c.svc.alloc = dws::svc::AllocPolicy::kSpaceShare;
  c.svc.ranks_per_job = kServiceRanksPerJob;
  c.svc.mix = {{"SIM200K", 3.0}, {"SIM500K", 1.0}};
  return c;
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"ref_storm",
                                                       "tofu_service"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  if (name == "ref_storm") {
    w.config = storm_config(seed);
    w.seed_note = "SIM200K root_seed=" +
                  std::to_string(w.config.tree.root_seed) +
                  " (size-matched); ws.seed=" +
                  std::to_string(w.config.ws.seed) +
                  " (unused by round robin)";
  } else if (name == "tofu_service") {
    w.config = service_config(seed);
    w.seed_note = "svc.seed=" + std::to_string(w.config.svc.seed) +
                  " (arrivals, job mix, per-job root seeds); ws.seed=" +
                  std::to_string(w.config.ws.seed) + " (Tofu victim draws)";
  } else {
    return std::nullopt;
  }
  return w;
}

std::optional<Workload> sharded_twin(const Workload& workload) {
  if (workload.name != "ref_storm") return std::nullopt;
  Workload twin = workload;
  twin.name = "ref_storm sharded twin";
  twin.config.sim_shards = kShards;
  return twin;
}

Setup set_up(const Workload& workload, SpanLog& spans) {
  const RunConfig& config = workload.config;
  {
    const auto span = spans.span("validate");
    if (const dws::support::Status s = config.validate(); !s.is_ok()) {
      throw std::runtime_error("invalid config: " + s.message());
    }
  }
  const auto span = spans.span("oracle");

  std::vector<dws::uts::TreeParams> trees;
  if (workload.is_service()) {
    for (const dws::svc::JobSpec& job :
         dws::svc::generate_jobs(config.svc, config.tree)) {
      trees.push_back(job.tree);
    }
  } else {
    trees.push_back(config.tree);
  }

  // Walk the trees expected to be largest first, so no thread is left with
  // a big one at the end.
  std::vector<std::size_t> order(trees.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trees[a].expected_size().value_or(0.0) >
                            trees[b].expected_size().value_or(0.0);
                   });

  Setup setup;
  setup.jobs.resize(trees.size());
  const auto t0 = Clock::now();
  std::atomic<std::size_t> next{0};
  auto walk = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < order.size();) {
      const std::size_t i = order[k];
      const dws::uts::TreeStats s = dws::uts::enumerate_sequential(trees[i]);
      setup.jobs[i] = JobOracle{trees[i], s.nodes, s.leaves};
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      trees.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(walk);
  walk();
  pool.clear();  // joins
  setup.oracle_s = seconds_since(t0);
  for (const JobOracle& j : setup.jobs) setup.oracle_nodes += j.nodes;
  return setup;
}

}  // namespace perfbench
