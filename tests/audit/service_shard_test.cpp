/// Sharded differential suite for multi-tenant service runs (DESIGN.md §13):
/// a service point — several jobs, arrivals over virtual time, elastic or
/// space-shared allocation, optionally faulted — must emit BYTE-IDENTICAL
/// schema-v6 records (run row AND every job row) at sim_shards 1, 2, 4 and
/// 8, with merge_ambiguities == 0. The controller lives on shard 0 and its
/// admission/lease traffic crosses shards as ordinary network deliveries, so
/// this pins the whole control plane, not just the steal protocol.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "svc/service.hpp"
#include "topo/allocation.hpp"
#include "uts/params.hpp"
#include "ws/scheduler.hpp"

namespace dws::audit {
namespace {

/// One sim_shards sweep of a service config rendered as wall-clock-free
/// JSONL. Unlike the single-job differential, each point renders several
/// lines (one run row + one job row per job); all of them must match.
std::vector<std::string> service_records_per_shard_count(
    const ws::RunConfig& base,
    const std::vector<std::uint32_t>& counts = {1, 2, 4, 8}) {
  exp::SweepSpec spec(base);
  spec.axis(exp::sim_shards_axis(counts));
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);
  exp::RunnerOptions options;
  options.threads = 1;
  options.progress = false;
  options.run = [](const ws::RunConfig& cfg) { return checked_run(cfg); };
  const exp::SweepReport report =
      exp::SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.all_ok());

  std::vector<std::string> blocks;
  for (std::size_t i = 0; i < expanded.value().size(); ++i) {
    std::ostringstream out;
    exp::RecordWriter writer(out, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                                     /*wall_clock=*/false});
    writer.write(expanded.value()[i], report.points[i]);
    std::string block = out.str();
    // Strip the sweep bookkeeping from every line of the block (run and job
    // rows both carry it) — the only part allowed to differ.
    for (std::size_t pos = block.find("\"index\":"); pos != std::string::npos;
         pos = block.find("\"index\":", pos)) {
      const auto end = block.find('}', block.find("\"coords\":{", pos));
      EXPECT_NE(end, std::string::npos);
      if (end == std::string::npos) break;
      block.erase(pos, end + 2 - pos);
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void expect_service_shard_invariant(const ws::RunConfig& base) {
  const std::vector<std::string> blocks =
      service_records_per_shard_count(base);
  ASSERT_EQ(blocks.size(), 4u);
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[0], blocks[i])
        << "service records diverge between sim_shards=1 and the " << i
        << "th shard count";
  }
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    ws::RunConfig cfg = base;
    cfg.sim_shards = shards;
    const ws::RunResult result = svc::run_service(cfg);
    EXPECT_EQ(result.merge_ambiguities, 0u) << "sim_shards=" << shards;
    EXPECT_GT(result.shards_used, 1u);
    EXPECT_FALSE(result.jobs.empty());
  }
}

ws::RunConfig service_base() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 64;
  cfg.ws.chunk_size = 4;
  cfg.svc.enabled = true;
  cfg.svc.seed = 4;
  return cfg;
}

TEST(ServiceShard, SpaceSharedStreamIsShardCountInvariant) {
  ws::RunConfig cfg = service_base();
  cfg.svc.arrival = svc::ArrivalKind::kPoisson;
  cfg.svc.num_jobs = 6;
  cfg.svc.mean_interarrival = 300'000;
  cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 16;
  expect_service_shard_invariant(cfg);
}

TEST(ServiceShard, TimeSharedElasticStreamIsShardCountInvariant) {
  // Elastic leases are the hard case: shrink/park/relinquish hand-offs
  // triggered by controller messages that cross shard boundaries.
  ws::RunConfig cfg = service_base();
  cfg.svc.arrival = svc::ArrivalKind::kTrace;
  cfg.svc.trace = {0, 200'000, 400'000, 600'000, 800'000, 1'000'000};
  cfg.svc.alloc = svc::AllocPolicy::kTimeShare;
  expect_service_shard_invariant(cfg);
}

TEST(ServiceShard, FaultedServiceStreamIsShardCountInvariant) {
  // The full fault model on top of a space-shared stream: per-channel draw
  // keying must keep the shard-local injectors byte-equivalent even though
  // the control plane (kReliable) is exempt from loss.
  ws::RunConfig cfg = service_base();
  cfg.svc.arrival = svc::ArrivalKind::kPoisson;
  cfg.svc.num_jobs = 4;
  cfg.svc.mean_interarrival = 400'000;
  cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 32;
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.02;
  cfg.fault.jitter_frac = 0.3;
  cfg.fault.straggler_ranks = 2;
  cfg.fault.pause_ranks = 2;
  cfg.fault.pause_duration = 50'000;
  cfg.fault.pause_window = 200'000;
  cfg.fault.seed = 5;
  cfg.ws.steal_timeout = 50'000;
  cfg.ws.token_timeout = 2'000'000;
  expect_service_shard_invariant(cfg);
}

TEST(ServiceShard, OneNodeStreamDegeneratesToTheSerialPathExactly) {
  // A pool whose ranks all share one node partitions into a single shard;
  // run_service must take the one-shard path and match an explicit
  // sim_shards=1 run byte-for-byte, run row and job rows alike.
  ws::RunConfig cfg = service_base();
  cfg.num_ranks = 8;
  cfg.placement = topo::Placement::kGrouped;
  cfg.procs_per_node = 8;
  cfg.svc.arrival = svc::ArrivalKind::kTrace;
  cfg.svc.trace = {0, 100'000, 200'000};
  cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 4;

  const std::vector<std::string> blocks =
      service_records_per_shard_count(cfg, {1, 8});
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], blocks[1]);

  cfg.sim_shards = 8;
  const ws::RunResult result = svc::run_service(cfg);
  EXPECT_EQ(result.shards_used, 1u);  // degenerated, not windowed
  EXPECT_EQ(result.jobs.size(), 3u);
}

TEST(ServiceShard, JobRowsSurviveTheRecordRoundTrip) {
  // A service point's JSONL must parse back into one run row plus one job
  // row per job, with the job identity fields intact.
  ws::RunConfig cfg = service_base();
  cfg.num_ranks = 16;
  cfg.svc.arrival = svc::ArrivalKind::kTrace;
  cfg.svc.trace = {0, 100'000, 200'000};
  cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 8;

  exp::SweepSpec spec(cfg);
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  exp::RunnerOptions options;
  options.threads = 1;
  options.progress = false;
  options.run = [](const ws::RunConfig& c) { return checked_run(c); };
  const exp::SweepReport report =
      exp::SweepRunner(options).run(expanded.value());
  ASSERT_TRUE(report.all_ok());

  std::stringstream io;
  exp::RecordWriter writer(io, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                                  /*wall_clock=*/false});
  writer.write_header();
  writer.write(expanded.value()[0], report.points[0]);
  const auto file = exp::read_records(io);
  ASSERT_TRUE(file) << file.error();
  ASSERT_EQ(file.value().records.size(), 4u);  // 1 run + 3 jobs
  const exp::SweepRecord& run = file.value().records[0];
  EXPECT_EQ(run.row, "run");
  EXPECT_EQ(run.jobs, 3u);
  EXPECT_GT(run.makespan_p99_ms, 0.0);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const exp::SweepRecord& job = file.value().records[j + 1];
    EXPECT_TRUE(job.is_job_row());
    EXPECT_EQ(job.job_id, j);
    EXPECT_EQ(job.job_width, 8u);
    EXPECT_GT(job.job_nodes, 0u);
    EXPECT_EQ(job.fingerprint, run.fingerprint);
  }
}

}  // namespace
}  // namespace dws::audit
