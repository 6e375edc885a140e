// mcs_perfbench: the repository benchmark binary (see perfbench/README.md).
//
//   mcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir DIR] [--trace-dir DIR] [--commit SHA]
//                 [--source-digest HEX]
//
// Prints one record line (host fingerprint, sample counts, exact work
// counters) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed, 2 on bad arguments, 3 when the build is not fit to record
// (debug or sanitizer build).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const auto high = std::min(low + 1, values.size() - 1);
  return values[low] + (rank - static_cast<double>(low)) * (values[high] - values[low]);
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) {
    total += value;
  }
  return values.empty() ? std::nan("") : total / static_cast<double>(values.size());
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void WindowStats::add(const std::vector<double>& latencies_s, std::size_t ok,
                      std::size_t attempted, std::size_t auctions, double busy_s) {
  p50_.push_back(percentile(latencies_s, 0.50) * 1e3);
  p90_.push_back(percentile(latencies_s, 0.90) * 1e3);
  p99_.push_back(percentile(latencies_s, 0.99) * 1e3);
  rounds_per_s_.push_back(static_cast<double>(ok) / busy_s);
  auctions_per_s_.push_back(static_cast<double>(auctions) / busy_s);
  latencies_s_.insert(latencies_s_.end(), latencies_s.begin(), latencies_s.end());
  ok_ += ok;
  attempted_ += attempted;
  auctions_ += auctions;
  busy_s_ += busy_s;
}

void WindowStats::report(Result& result, Summary summary) const {
  auto lowest = [](const std::vector<double>& values) {
    return *std::min_element(values.begin(), values.end());
  };
  auto highest = [](const std::vector<double>& values) {
    return *std::max_element(values.begin(), values.end());
  };
  auto& m = result.metrics;
  if (summary == Summary::kBestSubWindow) {
    m["round_p50_ms"] = lowest(p50_);
    m["round_p90_ms"] = lowest(p90_);
    m["round_p99_ms"] = lowest(p99_);
    m["rounds_per_s"] = highest(rounds_per_s_);
    m["auctions_per_s"] = highest(auctions_per_s_);
  } else {
    m["round_p50_ms"] = percentile(latencies_s_, 0.50) * 1e3;
    m["round_p90_ms"] = percentile(latencies_s_, 0.90) * 1e3;
    m["round_p99_ms"] = percentile(latencies_s_, 0.99) * 1e3;
    m["rounds_per_s"] = static_cast<double>(ok_) / busy_s_;
    m["auctions_per_s"] = static_cast<double>(auctions_) / busy_s_;
  }
  m["ok_ratio"] = static_cast<double>(ok_) / static_cast<double>(attempted_);
  for (const char* name : {"round_p50_ms", "round_p90_ms", "round_p99_ms"}) {
    result.samples[name] = latencies_s_.size();
  }
  result.windows = {{"round_p50_ms", p50_},
                    {"round_p90_ms", p90_},
                    {"round_p99_ms", p99_},
                    {"rounds_per_s", rounds_per_s_},
                    {"auctions_per_s", auctions_per_s_}};
}

bool same_outcome(const mcs::auction::MechanismOutcome& a,
                  const mcs::auction::MechanismOutcome& b) {
  auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  if (a.allocation.feasible != b.allocation.feasible ||
      a.allocation.winners != b.allocation.winners ||
      bits(a.allocation.total_cost) != bits(b.allocation.total_cost) ||
      a.degraded != b.degraded || a.uncovered_tasks != b.uncovered_tasks ||
      a.rewards.size() != b.rewards.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.rewards.size(); ++k) {
    const auto& x = a.rewards[k];
    const auto& y = b.rewards[k];
    if (x.user != y.user || bits(x.critical_contribution) != bits(y.critical_contribution) ||
        bits(x.reward.critical_pos) != bits(y.reward.critical_pos) ||
        bits(x.reward.cost) != bits(y.reward.cost) ||
        bits(x.reward.alpha) != bits(y.reward.alpha)) {
      return false;
    }
  }
  return true;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks the names).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"round_p50_ms", "ms"},  {"round_p90_ms", "ms"},
    {"round_p99_ms", "ms"},     {"rounds_per_s", "1/s"}, {"auctions_per_s", "1/s"},
    {"ok_ratio", "ratio"},      {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"service.partition_ms", "ms"},
    {"service.partition_allocs", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.post_merge_ms", "ms"},
    {"service.journal_append_ms", "ms"},
    {"service.journal_bytes", "bytes"},
    {"service.compute_ms", "ms"},
    {"service.merge_ms", "ms"},
    {"service.straddlers", "count"},
    {"engine.batch_ms", "ms"},
    {"engine.shard_skew", "ratio"},
    {"pool.busy_frac", "ratio"},
    {"multi_task.view_build_ms", "ms"},
    {"multi_task.wd_ms", "ms"},
    {"multi_task.rewards_ms", "ms"},
    {"multi_task.heap_reevaluations", "count"},
    {"multi_task.probes_per_winner", "count"},
    {"single_task.wd_ms", "ms"},
    {"single_task.rewards_ms", "ms"},
    {"single_task.probes", "count"},
    {"single_task.dp_reuse_hit_ratio", "ratio"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.round_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct Fingerprint {
  std::string compiler;
  std::string build_type = MCS_PERFBENCH_BUILD_TYPE;
  std::string sanitizer = MCS_PERFBENCH_SANITIZE;
  bool optimized = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  unsigned nproc = std::thread::hardware_concurrency();

  Fingerprint() {
#if defined(__clang__)
    compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    compiler = "gcc " __VERSION__;
#else
    compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
    optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    if (sanitizer.empty()) {
      sanitizer = "compiler-enabled";
    }
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    if (sanitizer.empty()) {
      sanitizer = "compiler-enabled";
    }
#endif
#endif
  }

  /// Empty when the build may record; otherwise the reason it may not.
  std::string refusal() const {
    if (!sanitizer.empty()) {
      return "sanitizer build (" + sanitizer + ")";
    }
    if (build_type == "Debug" || !optimized) {
      return "debug or unoptimized build (" + build_type + ")";
    }
    return "";
  }

  std::string to_json() const {
    return "{\"nproc\":" + std::to_string(nproc) + ",\"compiler\":" + json_string(compiler) +
           ",\"build_type\":" + json_string(build_type) +
           ",\"sanitizer\":" + json_string(sanitizer.empty() ? "none" : sanitizer) +
           ",\"commit\":" + json_string(commit) +
           ",\"source_digest\":" + json_string(source_digest) + "}";
  }
};

int usage(const std::string& message) {
  std::cerr << "mcs_perfbench: " << message << "\n"
            << "usage: mcs_perfbench --workload <round_sharded|round_flat|round_small|"
               "single_task_batch> --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR] "
               "[--trace-dir DIR] [--commit SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  Fingerprint host;
  try {
    for (int k = 1; k < argc; k += 2) {
      const std::string flag = argv[k];
      if (k + 1 >= argc) {
        return usage("missing value for " + flag);
      }
      const std::string value = argv[k + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else if (flag == "--commit") {
        host.commit = value;
      } else if (flag == "--source-digest") {
        host.source_digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad argument value");
  }
  if (options.seconds <= 0.0) {
    return usage("--seconds must be positive");
  }
  if (const auto reason = host.refusal(); !reason.empty()) {
    std::cerr << "mcs_perfbench: refusing to record from a " << reason << "\n";
    return 3;
  }

  Result result;
  try {
    std::filesystem::create_directories(options.work_dir);
    std::filesystem::create_directories(options.trace_dir);
    if (options.workload == "single_task_batch") {
      result = run_single_task_batch(options);
    } else if (options.workload == "round_sharded" || options.workload == "round_flat" ||
               options.workload == "round_small") {
      result = run_round_workload(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "mcs_perfbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream metrics;
  bool first = true;
  const auto& specs = options.trace ? std::span<const MetricSpec>(kPerLayer)
                                    : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    double value = 0.0;
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      result.fail(std::string("metric ") + spec.name + " was not measured");
    } else {
      value = it->second;
    }
    metrics << (first ? "" : ", ") << json_string(spec.name) << ": {\"value\": "
            << json_number(value) << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  }

  std::ostringstream record;
  record << "{\"record\": {\"workload\": " << json_string(options.workload)
         << ", \"seed\": " << options.seed << ", \"seconds\": " << json_number(options.seconds)
         << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"host\": " << host.to_json()
         << ", \"samples\": {";
  first = true;
  for (const auto& [name, count] : result.samples) {
    record << (first ? "" : ", ") << json_string(name) << ": " << count;
    first = false;
  }
  record << "}, \"sub_windows\": {";
  first = true;
  for (const auto& [name, values] : result.windows) {
    record << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t k = 0; k < values.size(); ++k) {
      record << (k > 0 ? ", " : "") << json_number(values[k]);
    }
    record << "]";
    first = false;
  }
  record << "}, \"counters\": {";
  first = true;
  for (const auto& [name, value] : result.counters) {
    record << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  record << "}, \"errors\": [";
  for (std::size_t k = 0; k < result.errors.size(); ++k) {
    record << (k > 0 ? ", " : "") << json_string(result.errors[k]);
  }
  record << "]}}";

  for (const auto& error : result.errors) {
    std::cerr << "mcs_perfbench: check failed: " << error << "\n";
  }
  std::cout << record.str() << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
