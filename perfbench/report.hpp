#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ws/scheduler.hpp"

/// Measuring and reporting helpers of dws_bench: host clocks and
/// usage, the in-memory span log of traced runs, the host/build stamp,
/// order statistics, the record digest and the result line.
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// dws_bench's time origin, taken when main() starts.
Clock::time_point process_start();
double seconds_since(Clock::time_point t0);

/// user + sys host seconds of this process (all threads) so far.
double cpu_seconds();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Spans kept in memory and written once, at exit. A span's parent is the
/// span open when it began; times are seconds since process_start(). A
/// disabled log records nothing, so untraced runs pay one branch per span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog* log, std::size_t id) : log_(log), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }

   private:
    SpanLog* log_;
    std::size_t id_;
  };

  /// Open a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(std::string name);

  /// One JSON object per line: id, name, parent (-1 for a root), start_s,
  /// end_s and workload.
  void write(const std::string& path, std::string_view workload) const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  void close(std::size_t id);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Where the numbers come from: host cores and CPU model, whether the CPU
/// has the SHA and AVX-512 extensions a faster SHA-1 could use, compiler and
/// build type.
std::string host_stamp_json();

double median(std::vector<double> samples);

/// The highest nearest-rank percentile with at least `beyond` samples above
/// it, i.e. the (n - beyond)-th smallest sample; the largest sample when
/// there are no more than `beyond` samples.
double tail(std::vector<double> samples, std::size_t beyond = 10);

/// Hex SHA-1 of the run's exp::RecordWriter JSONL record (header included),
/// written without the wall-clock fields: equal digests mean byte-identical
/// records.
std::string record_digest(const dws::ws::RunConfig& config,
                          const dws::ws::RunResult& result);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, each
/// value printed with every digit it has.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
