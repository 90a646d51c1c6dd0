// dws_bench — the repository's benchmark program (NOTES.md).
//
//   dws_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// --trace 0 sets up, then has three caller threads repeat the workload's run
// until S seconds have passed, checks every call against the sequential
// oracle and prints the end-to-end metrics. --trace 1 sets up, makes one
// untraced and one traced call, runs the per-layer probes and the audit
// pass, and prints the per-layer metrics; its spans go to FILE. The last
// stdout line is the JSON result; the exit code is 0 only when every check
// passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "layers.hpp"
#include "metrics/service_stats.hpp"
#include "report.hpp"
#include "support/check.hpp"
#include "svc/service.hpp"
#include "workload.hpp"

namespace {

using perfbench::Metric;
using perfbench::Setup;
using perfbench::Workload;
using dws::ws::RunResult;

constexpr int kSetupPasses = 3;
// Callers of the timed run, each a closed loop of calls on its own thread,
// as the sweep engine runs independent points. Three of the four vCPUs the
// bounds were set on: each vCPU's speed drifts on its own, by up to 1.5x over
// tens of seconds, and a median over calls on several vCPUs evens that out
// where a run on one vCPU cannot (NOTES.md). The fourth core is left to the
// rest of the host.
constexpr int kCallers = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dws_bench: %s needs a value\n", argv[i]);
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        a.spans = value;
      } else {
        std::fprintf(stderr, "dws_bench: unknown flag %s\n", argv[i - 1]);
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "dws_bench: bad value for %s: %s\n", argv[i - 1],
                   value.c_str());
      return std::nullopt;
    }
  }
  if (a.workload.empty()) {
    std::fprintf(stderr, "dws_bench: --workload is required\n");
    return std::nullopt;
  }
  return a;
}

/// One call into the library's public entry point for the workload.
struct Call {
  RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Call call(const dws::ws::RunConfig& config,
          dws::proto::RunObserver* observer = nullptr) {
  Call c;
  const double cpu0 = perfbench::cpu_seconds();
  const auto t0 = perfbench::Clock::now();
  c.result = config.svc.enabled ? dws::svc::run_service(config)
                                : dws::ws::run_simulation(config, observer);
  c.wall_s = perfbench::seconds_since(t0);
  c.cpu_s = perfbench::cpu_seconds() - cpu0;
  return c;
}

/// The correctness check of one call: every job against its oracle, no
/// merge ambiguity, and the record digest.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
};

Check check(const Setup& setup, const Workload& workload,
            const RunResult& r) {
  Check c;
  c.attempted = setup.jobs.size();
  c.digest = perfbench::record_digest(workload.config, r);
  if (r.merge_ambiguities != 0) {
    c.failed = c.attempted;
    return c;
  }
  if (!workload.is_service()) {
    const perfbench::JobOracle& o = setup.jobs.front();
    c.failed = (r.nodes == o.nodes && r.leaves == o.leaves) ? 0 : 1;
    return c;
  }
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const perfbench::JobOracle& o = setup.jobs[i];
    const bool ok = i < r.jobs.size() && r.jobs[i].job_id == i &&
                    r.jobs[i].tree == o.tree.name &&
                    r.jobs[i].nodes == o.nodes && r.jobs[i].leaves == o.leaves;
    c.failed += ok ? 0 : 1;
  }
  return c;
}

/// Simulated per-job makespans in ms; a single-job run is a one-job stream
/// whose job arrives at 0 and ends at termination.
std::vector<double> job_makespans_ms(const RunResult& r) {
  if (r.jobs.empty()) return {static_cast<double>(r.runtime) / 1e6};
  std::vector<double> out;
  for (const dws::metrics::JobOutcome& j : r.jobs) {
    out.push_back(static_cast<double>(j.makespan()) / 1e6);
  }
  return out;
}

/// `own_cpu` is false when other calls ran at the same time, whose CPU the
/// call's cpu_s then includes; it is left out.
void print_call(const char* what, const Call& c, const Check& k,
                bool own_cpu = true) {
  const std::string cpu =
      own_cpu ? " cpu_s=" + std::to_string(c.cpu_s) : std::string();
  std::printf(
      "%s: wall_s=%.4f%s nodes=%llu events=%llu sim_makespan_ms=%.6f "
      "jobs=%llu failed=%llu digest=%s\n",
      what, c.wall_s, cpu.c_str(),
      static_cast<unsigned long long>(c.result.nodes),
      static_cast<unsigned long long>(c.result.engine_events),
      static_cast<double>(c.result.runtime) / 1e6,
      static_cast<unsigned long long>(k.attempted),
      static_cast<unsigned long long>(k.failed), k.digest.c_str());
}

/// Tally of the run's checks: the result line's three counters.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool digests_agree = true;
  bool audit_ok = true;  ///< cleared by a failed audit pass
  std::string digest;

  void add(const Check& k) {
    attempted += k.attempted;
    failed += k.failed;
    if (digest.empty()) digest = k.digest;
    digests_agree = digests_agree && k.digest == digest;
  }
  bool correct() const { return failed == 0 && digests_agree && audit_ok; }
};

std::vector<Metric> timed_run(const Workload& workload, const Setup& setup,
                              double setup_s, double seconds, Tally& tally) {
  std::mutex mu;  // guards everything below that the callers share
  std::vector<double> walls;
  RunResult last;
  const double cpu0 = perfbench::cpu_seconds();
  const auto t0 = perfbench::Clock::now();
  // Each caller makes calls until `seconds` have passed, at least one.
  auto caller = [&] {
    do {
      Call c = call(workload.config);
      const Check k = check(setup, workload, c.result);
      const std::lock_guard lock(mu);
      tally.add(k);
      print_call(("call " + std::to_string(walls.size())).c_str(), c, k,
                 /*own_cpu=*/false);
      walls.push_back(c.wall_s);
      last = std::move(c.result);
    } while (perfbench::seconds_since(t0) < seconds);
  };
  {
    std::vector<std::jthread> callers;
    for (int i = 0; i < kCallers; ++i) callers.emplace_back(caller);
  }  // joins
  // Per-call CPU cannot be told apart between concurrent callers, and it
  // must include any thread the library starts, so it is the process's CPU
  // over the measured run divided among the calls.
  const double cpu_per_call = (perfbench::cpu_seconds() - cpu0) /
                              static_cast<double>(walls.size());

  const std::vector<double> makespans = job_makespans_ms(last);
  std::printf("calls: %zu from %d callers at once\n", walls.size(), kCallers);
  std::printf("jobs per call: %zu (job makespan p50 and tail are over these)\n",
              makespans.size());
  return {
      {"wall_s", perfbench::median(walls), "s"},
      {"cpu_s", cpu_per_call, "s"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
      {"sim_makespan_ms", static_cast<double>(last.runtime) / 1e6, "ms"},
      {"job_makespan_p50_ms", perfbench::median(makespans), "ms"},
      {"job_makespan_tail_ms", perfbench::tail(makespans), "ms"},
  };
}

/// Throws instead of aborting on a DWS_CHECK failure, so a failed audit is
/// reported rather than killing the run.
[[noreturn]] void throw_on_check(const char* expr, const char* file, int line) {
  throw std::runtime_error(std::string("DWS_CHECK failed: ") + expr + " at " +
                           file + ":" + std::to_string(line));
}

/// The audit pass: the workload once under audit::audited_run (a stream
/// under svc::checked_service_run, whose per-job oracle aborts on a
/// mismatch), its record compared with the untraced call's.
struct AuditOutcome {
  bool ok = false;
  double wall_s = 0.0;
};

AuditOutcome audit_pass(const Workload& workload,
                        const std::string& expected_digest) {
  AuditOutcome out;
  const auto previous = dws::support::set_check_handler(&throw_on_check);
  const auto t0 = perfbench::Clock::now();
  try {
    if (workload.is_service()) {
      const RunResult r = dws::svc::checked_service_run(workload.config);
      out.wall_s = perfbench::seconds_since(t0);
      out.ok = perfbench::record_digest(workload.config, r) == expected_digest;
    } else {
      const dws::audit::AuditedResult a =
          dws::audit::audited_run(workload.config);
      out.wall_s = perfbench::seconds_since(t0);
      std::printf("audit: %s\n", a.report.summary().c_str());
      out.ok = a.report.ok() && perfbench::record_digest(
                                    workload.config, a.result) ==
                                    expected_digest;
    }
  } catch (const std::exception& e) {
    out.wall_s = perfbench::seconds_since(t0);
    std::printf("audit: %s\n", e.what());
  }
  dws::support::set_check_handler(previous);
  return out;
}

std::vector<Metric> traced_run(const Workload& workload, const Setup& setup,
                               perfbench::SpanLog& spans, Tally& tally) {
  const dws::ws::RunConfig& config = workload.config;

  Call plain;
  {
    const auto span = spans.span("call.untraced");
    plain = call(config);
  }
  const Check plain_check = check(setup, workload, plain.result);
  tally.add(plain_check);
  print_call("untraced call", plain, plain_check);

  perfbench::ProtoProbe probe(config.num_ranks);
  Call traced;
  {
    const auto span = spans.span("call.traced");
    traced = call(config, workload.is_service() ? nullptr : &probe);
  }
  const Check traced_check = check(setup, workload, traced.result);
  tally.add(traced_check);
  print_call("traced call", traced, traced_check);
  const RunResult& r = traced.result;

  const perfbench::LayerCosts cost =
      perfbench::probe_layers(workload, setup, r.engine_peak_pending, spans);

  // The window driver, measured against the single-engine call it bypasses.
  std::optional<Call> sharded;
  std::string sharded_digest;
  if (const auto twin = perfbench::sharded_twin(workload)) {
    {
      const auto span = spans.span("call.sharded_twin");
      sharded = call(twin->config);
    }
    const Check k = check(setup, *twin, sharded->result);
    tally.add(k);
    print_call(twin->name.c_str(), *sharded, k);
    sharded_digest = k.digest;
  }
  const Call& shard_call = sharded ? *sharded : plain;

  AuditOutcome audit;
  {
    const auto span = spans.span("audit");
    audit = audit_pass(workload, plain_check.digest);
  }
  // The sharded core must reproduce the single-engine record byte for byte.
  if (sharded) audit.ok = audit.ok && sharded_digest == plain_check.digest;
  std::printf("audit: %s in %.3f s\n", audit.ok ? "ok" : "FAILED",
              audit.wall_s);
  tally.audit_ok = audit.ok;

  const double wall = plain.wall_s;
  const double nodes = static_cast<double>(r.nodes);
  const double events = static_cast<double>(r.engine_events);
  const double messages = static_cast<double>(r.network.messages);
  const double crypto_share = nodes * cost.spawn_ns * 1e-9 / wall;
  const double topo_share =
      messages * (cost.latency_ns + cost.hops_ns) * 1e-9 / wall;
  const double queue_share = events / cost.engine_events_per_s / wall;

  double queue_wait_tail = 0.0;
  double sched_latency_tail = 0.0;
  if (workload.is_service()) {
    // service_tails gives p50/p99; the tail here keeps ten jobs beyond it.
    std::vector<double> waits;
    std::vector<double> sched;
    for (const dws::metrics::JobOutcome& j : r.jobs) {
      waits.push_back(static_cast<double>(j.queue_wait()) / 1e6);
      sched.push_back(static_cast<double>(j.sched_latency()) / 1e6);
    }
    const dws::metrics::ServiceTails t = dws::metrics::service_tails(r.jobs);
    std::printf("svc: p50 queue_wait_ms=%.6f sched_latency_ms=%.6f\n",
                t.queue_wait.p50, t.sched_latency.p50);
    queue_wait_tail = perfbench::tail(waits);
    sched_latency_tail = perfbench::tail(sched);
    std::printf(
        "proto.tokens_sent, proto.termination_share: not observed, "
        "svc::run_service takes no observer (reported as 0)\n");
  } else {
    std::printf("svc: single-job run, no queue (svc.* report one job)\n");
  }

  const auto& st = r.stats;
  return {
      {"crypto.spawn_ns", cost.spawn_ns, "ns"},
      {"crypto.est_share", crypto_share, "fraction"},
      {"uts.seq_nodes_per_s", cost.seq_nodes_per_s, "1/s"},
      {"topo.latency_ns", cost.latency_ns, "ns"},
      {"topo.hops_ns", cost.hops_ns, "ns"},
      {"topo.est_share", topo_share, "fraction"},
      {"proto.select_ns", cost.select_ns, "ns"},
      {"proto.steal_attempts", static_cast<double>(st.steal_attempts), "count"},
      {"proto.failed_steals", static_cast<double>(st.failed_steals), "count"},
      {"proto.steal_success_ratio",
       st.steal_attempts == 0 ? 0.0
                              : static_cast<double>(st.successful_steals) /
                                    static_cast<double>(st.steal_attempts),
       "ratio"},
      {"proto.chunks_sent", static_cast<double>(st.chunks_sent), "count"},
      {"proto.tokens_sent", static_cast<double>(probe.tokens_sent()), "count"},
      {"proto.termination_share",
       workload.is_service() ? 0.0 : probe.termination_share(r.runtime),
       "fraction"},
      {"sim.engine_events_per_s", cost.engine_events_per_s, "1/s"},
      {"sim.est_queue_share", queue_share, "fraction"},
      {"sim.events", events, "count"},
      {"sim.events_per_node", events / nodes, "ratio"},
      {"sim.peak_pending", static_cast<double>(r.engine_peak_pending),
       "count"},
      {"sim.messages", messages, "count"},
      {"sim.messages_per_node", messages / nodes, "ratio"},
      {"sim.peak_channels", static_cast<double>(r.network.peak_channels),
       "count"},
      {"sim.intra_node_frac",
       messages == 0.0 ? 0.0
                       : static_cast<double>(r.network.intra_node_messages) /
                             messages,
       "fraction"},
      {"sim.max_load_hops", r.network.max_load_hops, "hops"},
      {"ws.events_per_s", events / wall, "1/s"},
      {"ws.ns_per_event", wall * 1e9 / events, "ns"},
      {"ws.nodes_per_s", nodes / wall, "1/s"},
      {"ws.unexplained_share", 1.0 - crypto_share - topo_share - queue_share,
       "fraction"},
      {"ws.shard_cpu_util",
       shard_call.cpu_s / (shard_call.wall_s *
                           static_cast<double>(shard_call.result.shards_used)),
       "fraction"},
      {"ws.shards_used", static_cast<double>(shard_call.result.shards_used),
       "count"},
      {"ws.shard_speedup", wall / shard_call.wall_s, "ratio"},
      {"ws.merge_ambiguities",
       static_cast<double>(shard_call.result.merge_ambiguities), "count"},
      {"svc.jobs", static_cast<double>(setup.jobs.size()), "count"},
      {"svc.queue_wait_tail_ms", queue_wait_tail, "ms"},
      {"svc.sched_latency_tail_ms", sched_latency_tail, "ms"},
      {"audit.ok", audit.ok ? 1.0 : 0.0, "bool"},
      {"audit.overhead", audit.wall_s / wall, "ratio"},
      {"trace.overhead_frac", traced.wall_s / wall - 1.0, "fraction"},
  };
}

int run(const Args& args) {
  const std::optional<Workload> workload =
      perfbench::make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "dws_bench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string_view n : perfbench::workload_names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(n.size()), n.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("host: %s\n", perfbench::host_stamp_json().c_str());
  std::printf("workload: %s seed=%llu; seed sets %s\n", workload->name.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload->seed_note.c_str());

  perfbench::SpanLog spans(args.trace);
  // Set up several times and report the median.
  std::vector<double> setup_times;
  Setup setup;
  {
    const auto span = spans.span("setup");
    for (int pass = 0; pass < kSetupPasses; ++pass) {
      const auto t0 = perfbench::Clock::now();
      const auto s = spans.span("setup.pass");
      setup = perfbench::set_up(*workload, spans);
      setup_times.push_back(perfbench::seconds_since(t0));
      std::printf("setup pass %d: %.4f s (oracle %.4f s, %llu nodes)\n", pass,
                  setup_times.back(), setup.oracle_s,
                  static_cast<unsigned long long>(setup.oracle_nodes));
    }
  }

  Tally tally;
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = traced_run(*workload, setup, spans, tally);
  } else {
    metrics = timed_run(*workload, setup, perfbench::median(setup_times),
                        args.seconds, tally);
  }
  if (!args.spans.empty()) spans.write(args.spans, workload->name);

  const bool correct = tally.correct();
  std::printf("record digest: %s%s\n", tally.digest.c_str(),
              tally.digests_agree ? "" : " (calls disagree)");
  std::cout << perfbench::result_json(correct, tally.attempted, tally.failed,
                                      metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::process_start();
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return 2;
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dws_bench: %s\n", e.what());
    return 1;
  }
}
