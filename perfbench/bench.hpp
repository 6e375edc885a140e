// Shared plumbing of the repository benchmark: command-line options, the
// result record every workload fills, timing and statistics helpers, and the
// bit-for-bit outcome comparison the output checks use.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "auction/types.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the run's journals (inside the checkout).
  std::filesystem::path work_dir = ".bench_build/run";
  /// Where the traced run writes its spans.
  std::filesystem::path trace_dir = ".bench_build/traces";
};

/// What one workload run produced. Metric names follow BENCHMARK.json.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Exact, deterministic work counts of one pass over the workload's input
  /// pool (traced run only); identical for identical seeds and code.
  std::map<std::string, double> counters;
  /// Sample count behind each percentile metric.
  std::map<std::string, std::size_t> samples;
  /// Per-sub-window values behind each median-of-sub-windows metric.
  std::map<std::string, std::vector<double>> windows;
  std::vector<std::string> errors;

  void fail(const std::string& message) {
    correct = false;
    if (errors.size() < 20) {
      errors.push_back(message);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear interpolation between order statistics (p in [0, 1]).
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
double median(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// SplitMix64 of (seed, stream, index): independent per-input seeds, so the
/// k-th input of a workload never depends on how many others were drawn.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// Bit-for-bit equality of two mechanism outcomes (allocation, total cost,
/// rewards, degradation, uncovered tasks); telemetry is not compared.
bool same_outcome(const mcs::auction::MechanismOutcome& a, const mcs::auction::MechanismOutcome& b);

/// Set-up (service or engine construction plus warm-up) runs this many
/// times; setup_s is the median.
constexpr int kSetupRepetitions = 5;

/// The timed window runs as back-to-back sub-windows, each a whole number
/// of passes over the workload's input pool, so sub-windows differ only by
/// timing noise. Every sub-window's value is kept in the record line.
class WindowStats {
 public:
  /// How the end-to-end timings and rates summarize the sub-windows.
  enum class Summary {
    /// The best sub-window: the lowest latency percentile, the highest
    /// rate. Interference from outside the process (other guests on a
    /// shared host) only ever adds time and comes in bursts of seconds to
    /// minutes, so the best of many short sub-windows is the one it touched
    /// least.
    kBestSubWindow,
    /// Percentiles over every latency of the window and rates over its
    /// summed busy seconds. For workloads whose rounds each last seconds,
    /// so a run holds too few sub-windows for a best-of to be steady.
    kWholeWindow,
  };

  /// One sub-window: per-round (or per-batch) latencies, completed rounds,
  /// auctions run by them, and the seconds the rates are taken over.
  void add(const std::vector<double>& latencies_s, std::size_t ok, std::size_t attempted,
           std::size_t auctions, double busy_s);
  /// Fills round_p50/p90/p99_ms, rounds_per_s, auctions_per_s (summarized
  /// as `summary` says) and ok_ratio (over the whole window).
  void report(Result& result, Summary summary = Summary::kBestSubWindow) const;

 private:
  std::vector<double> p50_, p90_, p99_, rounds_per_s_, auctions_per_s_;
  std::vector<double> latencies_s_;
  std::size_t ok_ = 0;
  std::size_t attempted_ = 0;
  std::size_t auctions_ = 0;
  double busy_s_ = 0.0;
};

/// Workload entry points (rounds.cpp, single_task.cpp). Each returns after
/// its set-up, timed window and output checks.
Result run_round_workload(const Options& options);
Result run_single_task_batch(const Options& options);

}  // namespace perfbench
