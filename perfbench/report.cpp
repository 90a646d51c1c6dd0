#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "crypto/sha1.hpp"
#include "exp/record.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Clock::time_point process_start() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpanLog::Scope SpanLog::span(std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = seconds_since(process_start());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::close(std::size_t id) {
  spans_[id].end_s = seconds_since(process_start());
  open_.erase(std::find(open_.begin(), open_.end(), id));
}

void SpanLog::write(const std::string& path,
                    std::string_view workload) const {
  if (!enabled_) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << quoted(s.name)
        << ",\"parent\":" << s.parent << ",\"start_s\":" << number(s.start_s)
        << ",\"end_s\":" << number(s.end_s)
        << ",\"workload\":" << quoted(workload) << "}\n";
  }
}

std::string host_stamp_json() {
  std::string model = "unknown";
  bool sha_ni = false;
  bool avx512f = false;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = line.substr(std::min(colon + 2, line.size()));
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags") {
      std::istringstream flags(value);
      for (std::string f; flags >> f;) {
        sha_ni = sha_ni || f == "sha_ni";
        avx512f = avx512f || f == "avx512f";
      }
    }
  }
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << quoted(model)
      << ",\"sha_ni\":" << (sha_ni ? "true" : "false")
      << ",\"avx512f\":" << (avx512f ? "true" : "false")
#ifdef __clang__
      << ",\"compiler\":" << quoted("clang " __clang_version__)
#else
      << ",\"compiler\":" << quoted("gcc " __VERSION__)
#endif
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double tail(std::vector<double> samples, std::size_t beyond) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() <= beyond) return samples.back();
  return samples[samples.size() - beyond - 1];
}

std::string record_digest(const dws::ws::RunConfig& config,
                          const dws::ws::RunResult& result) {
  dws::exp::SweepPoint point;
  point.config = config;
  dws::exp::PointResult outcome;
  outcome.ok = true;
  outcome.result = result;
  std::ostringstream record;
  dws::exp::RecordOptions options;
  options.wall_clock = false;
  dws::exp::RecordWriter writer(record, options);
  writer.write_header();
  writer.write(point, outcome);
  const std::string bytes = record.str();
  return dws::crypto::to_hex(dws::crypto::Sha1::digest(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()}));
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
