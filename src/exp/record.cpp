#include "exp/record.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>
#include <variant>

#include "crypto/sha1.hpp"
#include "metrics/service_stats.hpp"
#include "proto/victim.hpp"
#include "support/check.hpp"
#include "support/sim_time.hpp"

namespace dws::exp {
namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Human-facing metric rendering: enough digits to round-trip a float's
/// interesting part, short enough to read. Deterministic for equal inputs,
/// which is all the byte-identical guarantee needs.
std::string fmt_metric(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string csv_escape(std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string canonical_config(const ws::RunConfig& c) {
  std::string s;
  auto kv = [&s](const char* key, const std::string& value) {
    s += key;
    s += '=';
    s += value;
    s += ';';
  };
  auto kvu = [&kv](const char* key, std::uint64_t v) {
    kv(key, std::to_string(v));
  };
  auto kvd = [&kv](const char* key, double v) { kv(key, fmt_double(v)); };

  kv("tree.name", c.tree.name);
  kv("tree.type", uts::to_string(c.tree.type));
  kvu("tree.root_seed", c.tree.root_seed);
  kvu("tree.root_branching", c.tree.root_branching);
  kvu("tree.m", c.tree.m);
  kvd("tree.q", c.tree.q);
  kvu("tree.gen_mx", c.tree.gen_mx);
  kv("tree.shape", uts::to_string(c.tree.shape));
  kvd("tree.shift", c.tree.shift);
  kvu("tree.max_children", c.tree.max_children);

  kvu("machine.nx", static_cast<std::uint64_t>(c.machine.nx()));
  kvu("machine.ny", static_cast<std::uint64_t>(c.machine.ny()));
  kvu("machine.nz", static_cast<std::uint64_t>(c.machine.nz()));
  kvu("num_ranks", c.num_ranks);
  kv("placement", topo::to_string(c.placement));
  kvu("procs_per_node", c.procs_per_node);
  kvu("origin_cube", c.origin_cube);

  kvu("latency.same_node", static_cast<std::uint64_t>(c.latency.same_node));
  kvu("latency.same_blade", static_cast<std::uint64_t>(c.latency.same_blade));
  kvu("latency.network_base",
      static_cast<std::uint64_t>(c.latency.network_base));
  kvu("latency.per_hop", static_cast<std::uint64_t>(c.latency.per_hop));
  kvd("latency.bytes_per_ns", c.latency.bytes_per_ns);

  kvu("congestion.enabled", c.congestion.enabled ? 1 : 0);
  kvd("congestion.capacity_hops", c.congestion.capacity_hops);
  kvd("congestion.scale", c.congestion_scale);
  if (c.congestion.enabled) {
    // The *resolved* window (the 0 default means one network_base), emitted
    // only when the model is on: the windowed-congestion semantics change
    // re-fingerprints congested configs exactly once, and a config whose
    // explicit window equals the derived one is honestly identical.
    kvu("congestion.window",
        static_cast<std::uint64_t>(
            sim::congestion_window(c.congestion, c.latency)));
  }

  kvu("ws.chunk_size", c.ws.chunk_size);
  kv("ws.victim_policy", ws::to_string(c.ws.victim_policy));
  kv("ws.steal_amount", ws::to_string(c.ws.steal_amount));
  kvu("ws.sha_rounds", c.ws.sha_rounds);
  kvu("ws.node_overhead", static_cast<std::uint64_t>(c.ws.node_overhead));
  kvu("ws.sha_round_cost", static_cast<std::uint64_t>(c.ws.sha_round_cost));
  kvu("ws.steal_handling_cost",
      static_cast<std::uint64_t>(c.ws.steal_handling_cost));
  kvu("ws.poll_interval", c.ws.poll_interval);
  kvu("ws.steal_request_bytes", c.ws.steal_request_bytes);
  kvu("ws.response_header_bytes", c.ws.response_header_bytes);
  kvu("ws.node_bytes", c.ws.node_bytes);
  kvu("ws.token_bytes", c.ws.token_bytes);
  kvu("ws.seed", c.ws.seed);
  if (c.ws.victim_policy == ws::VictimPolicy::kTofuSkewed) {
    // The two Tofu sampling backends are equal in distribution but draw
    // different RNG sequences, so two runs match iff the *active* backend
    // matches — not the raw alias_table_max_ranks threshold, which can
    // differ without changing anything the simulation does.
    kv("ws.tofu_sampler",
       proto::tofu_uses_alias(c.ws, c.num_ranks) ? "alias" : "rejection");
  }
  if (c.ws.victim_policy == ws::VictimPolicy::kAdaptive) {
    // Same backend-not-threshold rule as ws.tofu_sampler; the feedback knobs
    // only shape behaviour when the adaptive selector is the one running.
    kv("ws.adaptive_sampler",
       proto::tofu_uses_alias(c.ws, c.num_ranks) ? "alias" : "rejection");
    kvd("ws.adapt_epsilon", c.ws.adapt_epsilon);
    kvu("ws.adapt_refresh_interval", c.ws.adapt_refresh_interval);
  }
  if (c.ws.victim_policy == ws::VictimPolicy::kAdaptive ||
      c.ws.adaptive_steal_amount) {
    kvd("ws.adapt_decay", c.ws.adapt_decay);
  }
  if (c.ws.adaptive_steal_amount) {
    kvu("ws.adaptive_steal_amount", 1);
    // The *resolved* threshold (0 means 2 * chunk_size): a config spelling
    // the derived value explicitly is honestly identical.
    kvu("ws.adapt_yield_threshold", c.ws.adapt_yield_threshold != 0
                                        ? c.ws.adapt_yield_threshold
                                        : 2 * c.ws.chunk_size);
  }
  kvu("ws.one_sided_steals", c.ws.one_sided_steals ? 1 : 0);
  kv("ws.idle_policy", ws::to_string(c.ws.idle_policy));
  kvu("ws.lifeline_tries", c.ws.lifeline_tries);
  kvu("ws.hierarchical_local_tries", c.ws.hierarchical_local_tries);
  if (c.ws.victim_policy == ws::VictimPolicy::kHierarchical &&
      c.ws.hierarchical_remote_tries != 1) {
    // Only-when-enabled: the default one-remote-slot schedule is exactly the
    // pre-knob behaviour, so those configs keep their fingerprints.
    kvu("ws.hierarchical_remote_tries", c.ws.hierarchical_remote_tries);
  }
  kvu("ws.record_trace", c.ws.record_trace ? 1 : 0);

  // The backend key appears only for the native runtime so every simulator
  // config keeps its established fingerprint (kSim is the default engine).
  if (c.backend == ws::Backend::kRt) {
    kv("backend", ws::to_string(c.backend));
  }

  // Robustness/fault keys appear only when active so that every pre-fault
  // config keeps its established fingerprint.
  if (c.ws.steal_timeout != 0) {
    kvu("ws.steal_timeout", static_cast<std::uint64_t>(c.ws.steal_timeout));
    kvu("ws.steal_retry_max", c.ws.steal_retry_max);
    kvd("ws.steal_backoff", c.ws.steal_backoff);
  }
  if (c.ws.token_timeout != 0) {
    kvu("ws.token_timeout", static_cast<std::uint64_t>(c.ws.token_timeout));
  }
  if (c.fault.enabled()) {
    kvd("fault.drop_prob", c.fault.drop_prob);
    kvd("fault.dup_prob", c.fault.dup_prob);
    kvd("fault.jitter_frac", c.fault.jitter_frac);
    kvd("fault.degraded_frac", c.fault.degraded_frac);
    kvd("fault.degraded_mult", c.fault.degraded_mult);
    kvu("fault.straggler_ranks", c.fault.straggler_ranks);
    kvd("fault.straggler_factor", c.fault.straggler_factor);
    kvu("fault.pause_ranks", c.fault.pause_ranks);
    kvu("fault.pause_duration",
        static_cast<std::uint64_t>(c.fault.pause_duration));
    kvu("fault.pause_window",
        static_cast<std::uint64_t>(c.fault.pause_window));
    kvu("fault.seed", c.fault.seed);
    // Draw-keying generation: per-channel send counters replaced the global
    // counter (a semantics change — same seed, different draw sequence), so
    // faulted configs re-fingerprint exactly once.
    kv("fault.keying", "per-channel");
  }

  // Service keys appear only for service configs (svc.enabled) so every
  // single-job config keeps its established fingerprint.
  if (c.svc.enabled) {
    kvu("svc.seed", c.svc.seed);
    kv("svc.arrival", svc::to_string(c.svc.arrival));
    if (c.svc.arrival == svc::ArrivalKind::kTrace) {
      std::string trace;
      for (const support::SimTime t : c.svc.trace) {
        trace += std::to_string(t);
        trace += ',';
      }
      kv("svc.trace", trace);
    } else {
      kvu("svc.num_jobs", c.svc.num_jobs);
      kvu("svc.mean_interarrival",
          static_cast<std::uint64_t>(c.svc.mean_interarrival));
    }
    kv("svc.alloc", svc::to_string(c.svc.alloc));
    if (c.svc.alloc == svc::AllocPolicy::kSpaceShare) {
      kvu("svc.ranks_per_job", c.svc.ranks_per_job);
    }
    // Every service job is a UTS tree; the key stays so service records
    // and fingerprints keep their bytes.
    kv("svc.kind", "uts");
    if (!c.svc.mix.empty()) {
      std::string mix;
      for (const svc::JobMixEntry& e : c.svc.mix) {
        mix += e.tree;
        mix += ':';
        mix += fmt_double(e.weight);
        mix += ',';
      }
      kv("svc.mix", mix);
    }
  }

  // Empirical latency-sampling keys (the measured steal-RTT backend) appear
  // only when the backend is active — the analytic model's fingerprints are
  // untouched.
  if (c.latency.sampling_enabled()) {
    kvu("latency.sample_seed", c.latency.sample_seed);
    std::string bins;
    for (const topo::LatencySampleBin& b : c.latency.sample_bins) {
      bins += std::to_string(b.lo);
      bins += ':';
      bins += std::to_string(b.hi);
      bins += ':';
      bins += std::to_string(b.weight);
      bins += ',';
    }
    kv("latency.sample_bins", bins);
  }
  return s;
}

std::string config_fingerprint(const ws::RunConfig& config) {
  const std::string canonical = canonical_config(config);
  const auto digest = crypto::Sha1::digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(canonical.data()),
      canonical.size()));
  return crypto::to_hex(digest).substr(0, 12);
}

namespace {

/// First-line prefixes of the two wire formats; the schema version follows.
constexpr std::string_view kJsonlMeta =
    R"({"schema":"dws.exp.sweep","version":)";
constexpr std::string_view kCsvMeta = "# schema=dws.exp.sweep version=";

using Coords = std::vector<std::pair<std::string, std::string>>;
using Field = std::variant<std::uint64_t SweepRecord::*,
                           std::uint32_t SweepRecord::*, double SweepRecord::*,
                           bool SweepRecord::*, std::string SweepRecord::*,
                           Coords SweepRecord::*>;

/// Where a column is written. A column with none of kCsv, kRun and kJob is
/// read only: a field that older schema versions carried.
enum ColumnFlags : unsigned {
  kCsv = 1u << 0,        ///< every CSV row
  kRun = 1u << 1,        ///< JSONL run rows
  kJob = 1u << 2,        ///< JSONL job rows
  kJobLead = 1u << 3,    ///< JSONL job rows write these first: their key
  kIfFailed = 1u << 4,   ///< JSONL writes it only when ok is false
  kWallClock = 1u << 5,  ///< only with RecordOptions::wall_clock
};

constexpr unsigned kRunCol = kCsv | kRun;
constexpr unsigned kJobCol = kCsv | kJob;

struct Column {
  std::string_view name;
  Field field;
  unsigned flags;
};

/// Every column of schema v6 in wire order, plus the read-only ones. This
/// table is the CSV header, both writers and the reader's field map.
const Column kColumns[] = {
    {"index", &SweepRecord::index, kCsv | kRun | kJob | kJobLead},
    {"coords", &SweepRecord::coords, kRun | kJob | kJobLead},
    {"point", &SweepRecord::label, kCsv},
    {"fingerprint", &SweepRecord::fingerprint, kCsv | kRun | kJob},
    {"tree", &SweepRecord::tree, kRunCol},
    {"ranks", &SweepRecord::ranks, kRunCol},
    {"placement", &SweepRecord::placement, kRunCol},
    {"procs_per_node", &SweepRecord::procs_per_node, kRunCol},
    {"policy", &SweepRecord::policy, kRunCol},
    {"steal", &SweepRecord::steal, kRunCol},
    {"chunk", &SweepRecord::chunk, kRunCol},
    {"sha_rounds", &SweepRecord::sha_rounds, kRunCol},
    {"seed", &SweepRecord::seed, kRunCol},
    {"ok", &SweepRecord::ok, kRunCol},
    {"error", &SweepRecord::error, kRunCol | kIfFailed},
    {"runtime_ms", &SweepRecord::runtime_ms, kRunCol},
    {"speedup", &SweepRecord::speedup, kRunCol},
    {"efficiency", &SweepRecord::efficiency, kRunCol},
    {"nodes", &SweepRecord::nodes, kRunCol},
    {"leaves", &SweepRecord::leaves, kRunCol},
    {"steal_attempts", &SweepRecord::steal_attempts, kRunCol},
    {"failed_steals", &SweepRecord::failed_steals, kRunCol},
    {"successful_steals", &SweepRecord::successful_steals, kRunCol},
    {"sessions", &SweepRecord::sessions, kRunCol},
    {"mean_session_ms", &SweepRecord::mean_session_ms, kRunCol},
    {"mean_search_ms", &SweepRecord::mean_search_ms, kRunCol},
    {"mean_steal_distance", &SweepRecord::mean_steal_distance, kRunCol},
    {"net_messages", &SweepRecord::net_messages, kRunCol},
    {"net_bytes", &SweepRecord::net_bytes, kRunCol},
    {"engine_events", &SweepRecord::engine_events, kRunCol},
    {"engine_peak_pending", &SweepRecord::engine_peak_pending, 0},
    {"net_peak_channels", &SweepRecord::net_peak_channels, 0},
    {"steal_timeouts", &SweepRecord::steal_timeouts, kRunCol},
    {"steal_retries", &SweepRecord::steal_retries, kRunCol},
    {"token_regens", &SweepRecord::token_regens, kRunCol},
    {"net_drops", &SweepRecord::net_drops, kRunCol},
    {"net_dups", &SweepRecord::net_dups, kRunCol},
    {"backend", &SweepRecord::backend, kRunCol},
    {"per_node_cost_ns", &SweepRecord::per_node_cost_ns, kRunCol},
    {"row", &SweepRecord::row, kCsv | kRun | kJob | kJobLead},
    {"jobs", &SweepRecord::jobs, kRunCol},
    {"makespan_p50_ms", &SweepRecord::makespan_p50_ms, kRunCol},
    {"makespan_p99_ms", &SweepRecord::makespan_p99_ms, kRunCol},
    {"queue_wait_p50_ms", &SweepRecord::queue_wait_p50_ms, kRunCol},
    {"queue_wait_p99_ms", &SweepRecord::queue_wait_p99_ms, kRunCol},
    {"sched_latency_p50_ms", &SweepRecord::sched_latency_p50_ms, kRunCol},
    {"sched_latency_p99_ms", &SweepRecord::sched_latency_p99_ms, kRunCol},
    {"job_id", &SweepRecord::job_id, kJobCol},
    {"job_tree", &SweepRecord::job_tree, kJobCol},
    {"job_root_seed", &SweepRecord::job_root_seed, kJobCol},
    {"job_base", &SweepRecord::job_base, kJobCol},
    {"job_width", &SweepRecord::job_width, kJobCol},
    {"job_arrival_ms", &SweepRecord::job_arrival_ms, kJobCol},
    {"job_admit_ms", &SweepRecord::job_admit_ms, kJobCol},
    {"job_first_compute_ms", &SweepRecord::job_first_compute_ms, kJobCol},
    {"job_finish_ms", &SweepRecord::job_finish_ms, kJobCol},
    {"job_queue_wait_ms", &SweepRecord::job_queue_wait_ms, kJobCol},
    {"job_sched_latency_ms", &SweepRecord::job_sched_latency_ms, kJobCol},
    {"job_makespan_ms", &SweepRecord::job_makespan_ms, kJobCol},
    {"job_nodes", &SweepRecord::job_nodes, kJobCol},
    {"job_leaves", &SweepRecord::job_leaves, kJobCol},
    {"job_steal_attempts", &SweepRecord::job_steal_attempts, kJobCol},
    {"job_successful_steals", &SweepRecord::job_successful_steals, kJobCol},
    {"wall_s", &SweepRecord::wall_s, kRunCol | kWallClock},
};

/// Appends one field of `r` in the wire format: JSON strings are quoted and
/// bools are true/false; CSV strings are quoted only when needed and bools
/// are 1/0. Coordinates exist only in JSONL.
void append_value(std::string& out, const SweepRecord& r, const Field& field,
                  RecordFormat format) {
  const bool jsonl = format == RecordFormat::kJsonl;
  std::visit(
      [&](auto member) {
        const auto& v = r.*member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          out += jsonl ? '"' + json_escape(v) + '"' : csv_escape(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? (jsonl ? "true" : "1") : (jsonl ? "false" : "0");
        } else if constexpr (std::is_same_v<T, double>) {
          out += fmt_metric(v);
        } else if constexpr (std::is_same_v<T, Coords>) {
          std::string pairs;
          for (const auto& [axis, value] : v) {
            if (!pairs.empty()) pairs += ',';
            pairs += '"' + json_escape(axis) + "\":\"";
            pairs += json_escape(value) + '"';
          }
          out += '{' + pairs + '}';
        } else {
          out += std::to_string(v);
        }
      },
      field);
}

/// The run row of one point, then (ok points only) one job row per
/// JobOutcome. Job rows share the point's identity and leave the run metrics
/// at zero; the fingerprint is hashed once for all of them.
std::vector<SweepRecord> point_records(const SweepPoint& point,
                                       const PointResult& pr) {
  const ws::RunConfig& c = point.config;
  const ws::RunResult& r = pr.result;
  SweepRecord id;
  id.index = point.index;
  id.coords = point.coords;
  id.label = point.label();
  id.fingerprint = config_fingerprint(c);
  id.tree = c.tree.name;
  id.ranks = c.num_ranks;
  id.placement = topo::to_string(c.placement);
  id.procs_per_node = c.procs_per_node;
  id.policy = ws::to_string(c.ws.victim_policy);
  id.steal = ws::to_string(c.ws.steal_amount);
  id.chunk = c.ws.chunk_size;
  id.sha_rounds = c.ws.sha_rounds;
  id.seed = c.ws.seed;
  id.ok = true;
  id.backend = ws::to_string(c.backend);

  std::vector<SweepRecord> rows(1, id);
  SweepRecord& run = rows.front();
  run.row = "run";
  run.ok = pr.ok;
  run.error = pr.error;
  if (pr.ok) {
    run.runtime_ms = support::to_millis(r.runtime);
    run.speedup = r.speedup();
    run.efficiency = r.efficiency();
    run.per_node_cost_ns = static_cast<std::uint64_t>(r.per_node_cost);
  }
  run.nodes = r.nodes;
  run.leaves = r.leaves;
  run.steal_attempts = r.stats.steal_attempts;
  run.failed_steals = r.stats.failed_steals;
  run.successful_steals = r.stats.successful_steals;
  run.sessions = r.stats.sessions;
  run.mean_session_ms = r.stats.mean_session_ms;
  run.mean_search_ms = r.stats.mean_search_time_s * 1e3;
  run.mean_steal_distance = r.stats.mean_steal_distance;
  run.net_messages = r.network.messages;
  run.net_bytes = r.network.bytes;
  run.engine_events = r.engine_events;
  run.steal_timeouts = r.stats.steal_timeouts;
  run.steal_retries = r.stats.steal_retries;
  run.token_regens = r.stats.token_regens;
  run.net_drops = r.faults.dropped_messages;
  run.net_dups = r.faults.duplicated_messages;
  run.jobs = r.jobs.size();
  const metrics::ServiceTails tails = metrics::service_tails(r.jobs);
  run.makespan_p50_ms = tails.makespan.p50;
  run.makespan_p99_ms = tails.makespan.p99;
  run.queue_wait_p50_ms = tails.queue_wait.p50;
  run.queue_wait_p99_ms = tails.queue_wait.p99;
  run.sched_latency_p50_ms = tails.sched_latency.p50;
  run.sched_latency_p99_ms = tails.sched_latency.p99;
  run.wall_s = pr.wall_seconds;
  if (!pr.ok) return rows;

  for (const metrics::JobOutcome& j : r.jobs) {
    SweepRecord& job = rows.emplace_back(id);
    job.row = "job";
    job.job_id = j.job_id;
    job.job_tree = j.tree;
    job.job_root_seed = j.root_seed;
    job.job_base = j.base;
    job.job_width = j.width;
    job.job_arrival_ms = support::to_millis(j.arrival);
    job.job_admit_ms = support::to_millis(j.admit);
    job.job_first_compute_ms = support::to_millis(j.first_compute);
    job.job_finish_ms = support::to_millis(j.finish);
    job.job_queue_wait_ms = support::to_millis(j.queue_wait());
    job.job_sched_latency_ms = support::to_millis(j.sched_latency());
    job.job_makespan_ms = support::to_millis(j.makespan());
    job.job_nodes = j.nodes;
    job.job_leaves = j.leaves;
    job.job_steal_attempts = j.steal_attempts;
    job.job_successful_steals = j.successful_steals;
  }
  return rows;
}

/// Whether rows written to `where` (kCsv, kRun or kJob) carry `col`.
bool writes(const Column& col, unsigned where, const RecordOptions& options) {
  return (col.flags & where) != 0 &&
         (options.wall_clock || (col.flags & kWallClock) == 0);
}

}  // namespace

RecordWriter::RecordWriter(std::ostream& out, RecordOptions options)
    : out_(&out), options_(options) {}

void RecordWriter::write_header() {
  if (options_.format == RecordFormat::kJsonl) {
    *out_ << kJsonlMeta << kRecordSchemaVersion << "}\n";
    return;
  }
  *out_ << kCsvMeta << kRecordSchemaVersion << '\n';
  const char* sep = "";
  for (const Column& col : kColumns) {
    if (!writes(col, kCsv, options_)) continue;
    *out_ << sep << col.name;
    sep = ",";
  }
  *out_ << '\n';
}

/// One line per record, in table order, except that JSONL job rows lead
/// with their key (index, coords, row).
void RecordWriter::write(const SweepPoint& point, const PointResult& pr) {
  const bool jsonl = options_.format == RecordFormat::kJsonl;
  for (const SweepRecord& r : point_records(point, pr)) {
    const unsigned where = !jsonl ? kCsv : r.is_job_row() ? kJob : kRun;
    std::string line = jsonl ? "{" : "";
    const char* sep = "";
    for (const bool lead : {true, false}) {
      for (const Column& col : kColumns) {
        if (!writes(col, where, options_)) continue;
        if ((where == kJob && (col.flags & kJobLead) != 0) != lead) continue;
        if (jsonl && (col.flags & kIfFailed) != 0 && r.ok) continue;
        line += sep;
        sep = ",";
        if (jsonl) line += '"' + std::string(col.name) + "\":";
        append_value(line, r, col.field, options_.format);
      }
    }
    *out_ << line << (jsonl ? "}\n" : "\n");
  }
}

void RecordWriter::write_report(const std::vector<SweepPoint>& points,
                                const SweepReport& report) {
  write_header();
  const std::size_t n =
      std::min(points.size(), report.points.size());
  for (std::size_t i = 0; i < n; ++i) {
    write(points[i], report.points[i]);
  }
}

namespace {

/// The number `v` starts with (0 if none): integers and %g doubles.
template <typename T>
T parse_number(std::string_view v) {
  T out{};
  std::from_chars(v.data(), v.data() + v.size(), out);
  return out;
}

const Column* find_column(std::string_view name) {
  for (const Column& col : kColumns) {
    if (col.name == name) return &col;
  }
  return nullptr;
}

/// Assigns one already-unescaped (key, value) pair into a record. Shared by
/// both wire formats; unknown keys are skipped so a v(N+1) file still loads
/// the fields this build knows about.
void assign_field(SweepRecord& r, std::string_view key, std::string_view v) {
  const Column* col = find_column(key);
  if (col == nullptr) return;
  if ((col->flags & kWallClock) != 0) r.has_wall_s = true;
  std::visit(
      [&](auto member) {
        auto& dst = r.*member;
        using T = std::remove_cvref_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, std::string>) {
          dst = std::string(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          dst = v == "true" || v == "1";
        } else if constexpr (std::is_arithmetic_v<T>) {
          dst = parse_number<T>(v);
        }
      },
      col->field);
}

/// Minimal scanner for the flat JSON objects RecordWriter emits: string,
/// number, and bool values, plus one level of string->string nesting (the
/// coordinates object). Not a general JSON parser and doesn't try to be.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view line) : s_(line) {}

  support::Status parse_into(SweepRecord& rec) {
    return parse_object([&](const std::string& key) {
      if (peek() == '{') {
        const Column* col = find_column(key);
        const auto* coords =
            col ? std::get_if<Coords SweepRecord::*>(&col->field) : nullptr;
        if (coords == nullptr) return err("unexpected nested object");
        return parse_object([&](const std::string& axis) {
          std::string value;
          support::Status st = parse_string(value);
          if (st) (rec.**coords).emplace_back(axis, std::move(value));
          return st;
        });
      }
      std::string value;
      if (peek() != '"') {
        value = scan_token();
      } else if (support::Status st = parse_string(value); !st) {
        return st;
      }
      assign_field(rec, key, value);
      return support::Status::ok();
    });
  }

 private:
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  support::Status err(const char* what) const {
    return support::Status::error(std::string("record parse: ") + what +
                                  " at offset " + std::to_string(i_));
  }

  /// `{"key":<value>,...}`; `on_value(key)` parses each value.
  template <typename OnValue>
  support::Status parse_object(const OnValue& on_value) {
    if (!eat('{')) return err("expected '{'");
    if (eat('}')) return support::Status::ok();
    while (true) {
      std::string key;
      if (support::Status st = parse_string(key); !st) return st;
      if (!eat(':')) return err("expected ':'");
      if (support::Status st = on_value(key); !st) return st;
      if (eat(',')) continue;
      if (eat('}')) return support::Status::ok();
      return err("expected ',' or '}'");
    }
  }

  support::Status parse_string(std::string& out) {
    if (!eat('"')) return err("expected '\"'");
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return support::Status::ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      switch (peek()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The writer escapes only control bytes. A code point above ASCII
          // would need UTF-8 encoding, which this reader does not do.
          const std::string_view hex = s_.substr(i_ + 1, 4);
          unsigned code = 0;
          const char* last = hex.data() + hex.size();
          const auto [end, ec] = std::from_chars(hex.data(), last, code, 16);
          if (hex.size() != 4 || ec != std::errc() || end != last) {
            return err("\\u escape needs four hex digits");
          }
          if (code >= 0x80) return err("\\u escape above 0x7f");
          i_ += 4;
          out += static_cast<char>(code);
          break;
        }
        default: return err("bad escape");
      }
      ++i_;
    }
    return err("unterminated string");
  }

  /// Unquoted scalar: number / true / false. Ends at ',' '}' or EOL.
  std::string_view scan_token() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}') ++i_;
    return s_.substr(start, i_ - start);
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Splits one CSV row with the writer's quoting rules ("" escapes a quote).
std::vector<std::string> split_csv_row(std::string_view line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

}  // namespace

support::Expected<RecordFile> read_records(std::istream& in) {
  using Result = support::Expected<RecordFile>;
  std::string line;
  if (!std::getline(in, line)) {
    return Result::failure("record parse: empty input");
  }

  RecordFile file;
  const bool jsonl = line.starts_with(kJsonlMeta);
  if (!jsonl && !line.starts_with(kCsvMeta)) {
    return Result::failure(
        "record parse: first line is neither a JSONL meta line nor a CSV "
        "schema comment");
  }
  file.format = jsonl ? RecordFormat::kJsonl : RecordFormat::kCsv;
  const std::size_t prefix = (jsonl ? kJsonlMeta : kCsvMeta).size();
  file.version = parse_number<int>(std::string_view(line).substr(prefix));
  if (file.version < kRecordMinSchemaVersion ||
      file.version > kRecordSchemaVersion) {
    return Result::failure(
        "record parse: unsupported schema version " +
        std::to_string(file.version) + " (this build reads " +
        std::to_string(kRecordMinSchemaVersion) + ".." +
        std::to_string(kRecordSchemaVersion) + ")");
  }
  std::vector<std::string> columns;  // CSV only
  if (!jsonl) {
    if (!std::getline(in, line)) {
      return Result::failure("record parse: missing CSV header row");
    }
    columns = split_csv_row(line);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SweepRecord& rec = file.records.emplace_back();
    if (jsonl) {
      if (const auto st = JsonCursor(line).parse_into(rec); !st) {
        return Result::failure(st);
      }
      continue;
    }
    const std::vector<std::string> cells = split_csv_row(line);
    if (cells.size() != columns.size()) {
      return Result::failure(
          "record parse: row has " + std::to_string(cells.size()) +
          " cells, header has " + std::to_string(columns.size()));
    }
    for (std::size_t i = 0; i < columns.size(); ++i) {
      assign_field(rec, columns[i], cells[i]);
    }
  }
  return file;
}

}  // namespace dws::exp
