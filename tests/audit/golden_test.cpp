/// Committed-golden regression tests: generated record streams must
/// reproduce files under tests/golden BYTE FOR BYTE.
///
///  - fig06_quick.jsonl: the fig06 quick sweep under the audit observer. The
///    file was generated on the pre-refactor closure event core, so this pins
///    the typed event core (calendar queue, slab pools, EventSink dispatch)
///    to the exact (time, seq) schedule — and with it every counter, trace,
///    and metric — of the original engine. The file was cut in schema v1
///    and re-cut in v6 once the writer stopped emitting older versions;
///    every v1 field was equal on all eight records across the re-cut.
///  - executor_matrix.jsonl: the executor paths fig06 never reaches —
///    lifelines, one-sided steals, the full fault model with its timers,
///    adaptive selection with amount switching, hierarchical selection, and
///    two service streams. Each config runs at sim_shards 1 and 3, the two
///    renderings must be identical, and each record is followed by a line of
///    SHA-1 digests over the per-rank counters and the activity trace, which
///    records do not carry.
///  - record_writer.jsonl / record_writer.csv: the writer's bytes in both
///    formats for three hand-built points (quoting, escaping, failed and
///    service rows, wall clock off and on), independent of the simulator.
///
/// To regenerate after an *intentional* semantic change, run this binary
/// with DWS_UPDATE_GOLDEN=1 in the environment and commit the diff with an
/// explanation of why the schedule legitimately changed.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "crypto/sha1.hpp"
#include "exp/figures.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/export.hpp"
#include "topo/allocation.hpp"
#include "uts/params.hpp"

#ifndef DWS_GOLDEN_DIR
#error "DWS_GOLDEN_DIR must point at tests/golden (set by tests/audit/CMakeLists.txt)"
#endif

namespace dws::audit {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DWS_GOLDEN_DIR) + "/" + name;
}

/// The fig06 --quick sweep: SIM200K, ranks {128, 256}, the paper's four
/// series, chunk 4, congestion on. Must match the generator exactly.
std::string generate_records() {
  ws::RunConfig base;
  base.tree = uts::tree_by_name("SIM200K");
  base.ws.chunk_size = 4;
  base.enable_congestion(1.0);

  exp::SweepSpec spec(base);
  spec.axis(exp::ranks_axis({128, 256}))
      .axis(exp::series_axis({exp::make_series(exp::kReference, exp::kOneN),
                              exp::make_series(exp::kRand, exp::kOneN),
                              exp::make_series(exp::kRand, exp::k8RR),
                              exp::make_series(exp::kRand, exp::k8G)}));
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);

  exp::RunnerOptions options;
  options.threads = 1;  // serial: the golden was generated serially
  options.progress = false;
  options.run = [](const ws::RunConfig& cfg) { return checked_run(cfg); };
  const exp::SweepReport report =
      exp::SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.all_ok());

  std::ostringstream out;
  exp::RecordWriter writer(out, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                                   /*wall_clock=*/false});
  writer.write_report(expanded.value(), report);
  return out.str();
}

/// Compares `generated` with the committed golden `name`, or rewrites the
/// golden when DWS_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& name,
                           const std::string& generated) {
  ASSERT_FALSE(generated.empty());
  const std::string path = golden_path(name);

  if (std::getenv("DWS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << generated;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing " << path << " (run with DWS_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  ASSERT_EQ(generated.size(), expected.size())
      << "record stream length changed — the event schedule is no longer "
         "identical to the committed golden " << name;
  // Byte compare with a readable first-divergence report.
  if (generated != expected) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < generated.size(); ++i) {
      if (generated[i] != expected[i]) break;
      if (generated[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    FAIL() << name << " mismatch first diverges at line " << line
           << ", column " << col;
  }
}

/// SHA-1 of `text` as hex.
std::string sha1_hex(const std::string& text) {
  return crypto::to_hex(crypto::Sha1::digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
}

/// Every per-rank counter, one rank per line.
std::string per_rank_text(const std::vector<metrics::RankStats>& ranks) {
  std::ostringstream out;
  out.precision(17);
  for (const metrics::RankStats& s : ranks) {
    out << s.nodes_processed << ' ' << s.leaves_seen << ' '
        << s.steal_attempts << ' ' << s.failed_steals << ' '
        << s.successful_steals << ' ' << s.requests_served << ' '
        << s.chunks_sent << ' ' << s.chunks_received << ' '
        << s.steal_timeouts << ' ' << s.steal_retries << ' '
        << s.duplicate_responses << ' ' << s.token_regens << ' '
        << s.amount_switches << ' ' << s.steal_distance_sum << ' '
        << s.lifeline_registrations << ' ' << s.lifeline_pushes << ' '
        << s.sessions << ' ' << s.total_session_time << ' '
        << s.total_search_time << ' ' << s.total_gather_time << ' '
        << s.remote_inputs << ' ' << s.finish_time << '\n';
  }
  return out.str();
}

/// One config's record row(s) plus its digest line, wall-clock free.
std::string render_point(const exp::SweepPoint& point,
                         const ws::RunResult& result) {
  exp::PointResult pr;
  pr.index = point.index;
  pr.ok = true;
  pr.result = result;
  std::ostringstream out;
  exp::RecordWriter writer(out, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                                   /*wall_clock=*/false});
  writer.write(point, pr);
  out << "{\"config\":\"" << point.coords.front().second
      << "\",\"per_rank_sha1\":\"" << sha1_hex(per_rank_text(result.per_rank))
      << "\",\"trace_sha1\":\""
      << sha1_hex(metrics::trace_to_csv(result.trace)) << "\"}\n";
  return out.str();
}

ws::RunConfig matrix_base() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 64;
  cfg.ws.chunk_size = 4;
  return cfg;
}

/// The full fault model with the recovery timers a lossy network needs.
void add_faults(ws::RunConfig& cfg) {
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
}

/// The executor matrix: each config run at sim_shards 1 and 3 under the
/// audit, the two renderings required identical, the 1-shard one kept.
std::string generate_executor_matrix() {
  using Mutation = std::function<void(ws::RunConfig&)>;
  const std::vector<std::pair<std::string, Mutation>> configs = {
      {"lifeline",
       [](ws::RunConfig& c) { c.ws.idle_policy = ws::IdlePolicy::kLifeline; }},
      {"one-sided", [](ws::RunConfig& c) { c.ws.one_sided_steals = true; }},
      {"lifeline+one-sided",
       [](ws::RunConfig& c) {
         c.ws.idle_policy = ws::IdlePolicy::kLifeline;
         c.ws.one_sided_steals = true;
       }},
      {"faults", add_faults},
      {"adaptive+amount",
       [](ws::RunConfig& c) {
         c.ws.victim_policy = ws::VictimPolicy::kAdaptive;
         c.ws.steal_amount = ws::StealAmount::kHalf;
         c.ws.adaptive_steal_amount = true;
       }},
      {"hierarchical-8G",
       [](ws::RunConfig& c) {
         c.ws.victim_policy = ws::VictimPolicy::kHierarchical;
         c.placement = topo::Placement::kGrouped;
         c.procs_per_node = 8;
       }},
      {"svc-space-faults",
       [](ws::RunConfig& c) {
         c.svc.enabled = true;
         c.svc.seed = 4;
         c.svc.arrival = svc::ArrivalKind::kPoisson;
         c.svc.num_jobs = 4;
         c.svc.mean_interarrival = 400'000;
         c.svc.alloc = svc::AllocPolicy::kSpaceShare;
         c.svc.ranks_per_job = 32;
         add_faults(c);
       }},
      {"svc-time",
       [](ws::RunConfig& c) {
         c.svc.enabled = true;
         c.svc.seed = 4;
         c.svc.arrival = svc::ArrivalKind::kTrace;
         c.svc.trace = {0, 200'000, 400'000, 600'000};
         c.svc.alloc = svc::AllocPolicy::kTimeShare;
       }},
  };

  std::ostringstream out;
  exp::RecordWriter(out, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                            /*wall_clock=*/false})
      .write_header();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    exp::SweepPoint point;
    point.index = i;
    point.coords = {{"config", configs[i].first}};
    point.config = matrix_base();
    configs[i].second(point.config);
    EXPECT_TRUE(point.config.validate().is_ok()) << configs[i].first;

    std::string rendered[2];
    const std::uint32_t shard_counts[2] = {1, 3};
    for (int k = 0; k < 2; ++k) {
      ws::RunConfig cfg = point.config;
      cfg.sim_shards = shard_counts[k];
      const ws::RunResult result = checked_run(cfg);
      if (k == 1) {
        EXPECT_GT(result.shards_used, 1u) << configs[i].first;
      }
      rendered[k] = render_point(point, result);
    }
    EXPECT_EQ(rendered[0], rendered[1])
        << configs[i].first << " differs between sim_shards 1 and 3";
    out << rendered[0];
  }
  return out.str();
}

/// A hand-built single-job result: every field the writer reads is set to a
/// fixed value, so the stream (wall_s included) never changes.
exp::PointResult fixed_result(std::size_t index) {
  exp::PointResult pr;
  pr.index = index;
  pr.ok = true;
  ws::RunResult& r = pr.result;
  r.runtime = 1'234'567;
  r.nodes = 4321;
  r.leaves = 2000;
  r.num_ranks = 8;
  r.per_node_cost = 2'500;
  r.stats.steal_attempts = 90;
  r.stats.failed_steals = 70;
  r.stats.successful_steals = 20;
  r.stats.sessions = 22;
  r.stats.mean_session_ms = 0.0123456789012;
  r.stats.mean_search_time_s = 0.000321;
  r.stats.mean_steal_distance = 1.75;
  r.stats.steal_timeouts = 5;
  r.stats.steal_retries = 4;
  r.stats.token_regens = 2;
  r.network.messages = 400;
  r.network.bytes = 12'345;
  r.network.peak_channels = 13;
  r.engine_events = 9876;
  r.engine_peak_pending = 77;
  r.faults.dropped_messages = 9;
  r.faults.duplicated_messages = 3;
  pr.wall_seconds = 1.25;
  return pr;
}

/// Three points that reach every writer branch — an ok single-job point
/// whose coord value needs quoting, a failed point whose error needs
/// escaping, a service point with two job rows — each written with the wall
/// clock off, then on.
std::string generate_writer_stream(exp::RecordFormat format) {
  std::vector<exp::SweepPoint> points(3);
  exp::SweepReport report;
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].index = i;
    points[i].config = matrix_base();
    points[i].config.num_ranks = 8;
    report.points.push_back(fixed_result(i));
  }
  points[0].coords = {{"series", "Rand, \"8G\""}, {"ranks", "8"}};

  points[1].coords = {{"series", "broken"}, {"ranks", "3"}};
  points[1].config.num_ranks = 3;
  report.points[1] = exp::PointResult{};
  report.points[1].index = 1;
  report.points[1].error = "bad \"x\", y\nz\x01w";
  report.points[1].wall_seconds = 0.5;

  points[2].coords = {{"alloc", "space"}};
  ws::RunConfig& service = points[2].config;
  service.svc.enabled = true;
  service.svc.seed = 4;
  service.svc.num_jobs = 2;
  service.svc.alloc = svc::AllocPolicy::kSpaceShare;
  service.svc.ranks_per_job = 4;
  metrics::JobOutcome a;
  a.job_id = 0;
  a.tree = "TEST_BIN_TINY";
  a.root_seed = 777;
  a.width = 4;
  a.admit = 1'000'000;
  a.first_compute = 2'000'000;
  a.finish = 10'000'000;
  a.nodes = 60;
  a.leaves = 30;
  a.steal_attempts = 12;
  a.successful_steals = 7;
  metrics::JobOutcome b = a;
  b.job_id = 1;
  b.tree = "TEST,\"TINY\"";
  b.base = 4;
  b.arrival = 3'000'000;
  b.admit = 5'000'000;
  b.first_compute = 5'500'000;
  b.finish = 23'456'789;
  b.nodes = 40;
  b.leaves = 20;
  report.points[2].result.jobs = {a, b};

  std::string stream;
  for (const bool wall_clock : {false, true}) {
    std::ostringstream out;
    exp::RecordWriter(out, exp::RecordOptions{format, wall_clock})
        .write_report(points, report);
    stream += out.str();
  }
  return stream;
}

TEST(GoldenFile, RecordWriterJsonlBytes) {
  expect_matches_golden("record_writer.jsonl",
                        generate_writer_stream(exp::RecordFormat::kJsonl));
}

TEST(GoldenFile, RecordWriterCsvBytes) {
  expect_matches_golden("record_writer.csv",
                        generate_writer_stream(exp::RecordFormat::kCsv));
}

TEST(GoldenFile, Fig06QuickIsByteIdenticalUnderAudit) {
  expect_matches_golden("fig06_quick.jsonl", generate_records());
}

TEST(GoldenFile, ExecutorMatrixIsByteIdenticalAcrossShards) {
  expect_matches_golden("executor_matrix.jsonl", generate_executor_matrix());
}

}  // namespace
}  // namespace dws::audit
