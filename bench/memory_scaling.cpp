// Memory-engineering bench (ISSUE-8): quantifies the two memory-path
// optimizations against their retained baselines, on the same shapes the
// equivalence suites pin bit-identical.
//
//  1. DP kernel wall-clock — the single-task mechanism end to end (reward
//     phase dominated by Algorithm 1 frontier sweeps) and a frontier-only
//     microbench, DpKernel::kColumns vs kScalarOracle, n up to 400. The
//     outcomes are asserted bit-identical before any time is reported, so
//     the speedup is an honest same-answer comparison.
//  2. Streaming trace RSS — peak RSS (VmHWM) of "load the CSV into an AoS
//     TraceDataset, then train the fleet" vs "train straight from the
//     mmap-backed column file". VmHWM is monotone per process, so each mode
//     runs in its own subprocess (self-exec via --rss-mode); the parent
//     prepares both files from one generated trace.
//
// Usage: memory_scaling [--out FILE]                       orchestrate + JSON
//        memory_scaling --dp-only columns|oracle [N REPS]  timing loop only
//                                                          (perf-stat target;
//                                                          see scripts/
//                                                          perf_cachemiss.sh)
//        memory_scaling --rss-mode aos|mapped PATH         internal child
//
// The JSON record goes to stdout and, when --out or MCS_BENCH_JSON names a
// file, is appended there (the bench/results convention).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "auction/single_task/dp_knapsack.hpp"
#include "auction/single_task/mechanism.hpp"
#include "bench_shapes.hpp"
#include "common/rng.hpp"
#include "mobility/predictor.hpp"
#include "trace/columnfile.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

namespace {

using namespace mcs;
using auction::DpKernel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak RSS of this process in KiB from /proc/self/status, or 0 when the
/// proc interface is unavailable (non-Linux).
std::size_t vmhwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

auction::MechanismConfig config_for(DpKernel kernel) {
  auction::MechanismConfig config;
  config.single_task.epsilon = 0.5;  // the scaling-suite default
  config.single_task.dp_kernel = kernel;
  return config;
}

/// Best-of-`reps` wall-clock of the full single-task mechanism (winner
/// determination + every critical-bid reward) under one kernel.
double best_mechanism_seconds(const auction::SingleTaskInstance& instance,
                              const auction::MechanismConfig& config, std::size_t reps) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const auto outcome = auction::single_task::run_mechanism(instance, config);
    best = std::min(best, seconds_since(start));
    if (!outcome.allocation.feasible) {
      std::cerr << "instance must be feasible for the timing to mean anything\n";
      std::exit(1);
    }
  }
  return best;
}

/// Item list of one large Algorithm 1 sweep, shaped like an FPTAS
/// subproblem at scale: n items, scaled costs up to ~n, fractional
/// contributions against a requirement that caps late in the sweep.
std::vector<auction::single_task::KnapsackItem> frontier_items(std::size_t n,
                                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<auction::single_task::KnapsackItem> items;
  items.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    items.push_back({auction::coverage::quantize(rng.uniform(0.01, 0.5)),
                     rng.uniform_int(1, static_cast<std::int64_t>(n))});
  }
  return items;
}

/// Best-of-`reps` wall-clock of frontier-only sweeps under one kernel — the
/// exact call the probe context issues thousands of times per reward phase.
double best_frontier_seconds(const std::vector<auction::single_task::KnapsackItem>& items,
                             auction::coverage::Amount requirement, DpKernel kernel,
                             std::size_t reps) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t guard = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const auto frontier =
        auction::single_task::min_knapsack_frontier(items, requirement, {}, kernel);
    best = std::min(best, seconds_since(start));
    guard += frontier.size();
  }
  if (guard == 0) {
    std::cerr << "empty frontiers: the microbench shape is degenerate\n";
    std::exit(1);
  }
  return best;
}

int run_dp_only(const std::string& kernel_name, std::size_t n, std::size_t reps) {
  const DpKernel kernel =
      kernel_name == "oracle" ? DpKernel::kScalarOracle : DpKernel::kColumns;
  const auto instance = bench_shapes::single_task_scaling_instance(n, 21);
  const double seconds = best_mechanism_seconds(instance, config_for(kernel), reps);
  std::cout << "kernel=" << kernel_name << " n=" << n << " best_ms=" << seconds * 1e3 << "\n";
  return 0;
}

/// Child-process body of the RSS comparison: run one training pipeline and
/// report this process's high-water mark.
int run_rss_mode(const std::string& mode, const std::string& path) {
  const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  const mobility::MarkovLearner learner(1.0);
  std::size_t taxis = 0;
  if (mode == "aos") {
    const auto dataset = trace::load_csv(path);
    const mobility::FleetModel fleet(dataset, grid, learner, 0.8);
    taxis = fleet.taxis().size();
  } else if (mode == "mapped") {
    const trace::MappedTraceDataset mapped(path);
    const mobility::FleetModel fleet(mapped, grid, learner, 0.8);
    taxis = fleet.taxis().size();
  } else {
    std::cerr << "unknown --rss-mode " << mode << "\n";
    return 2;
  }
  std::cout << "vmhwm_kb=" << vmhwm_kb() << " taxis=" << taxis << "\n";
  return 0;
}

/// Runs `command`, returns the vmhwm_kb= value it printed (0 on failure).
std::size_t child_vmhwm(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return 0;
  }
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  const int status = ::pclose(pipe);
  const auto key = output.find("vmhwm_kb=");
  if (status != 0 || key == std::string::npos) {
    return 0;
  }
  return static_cast<std::size_t>(std::strtoull(output.c_str() + key + 9, nullptr, 10));
}

std::string self_path(const char* argv0) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(argv0) : exe.string();
}

int run(const char* argv0, const std::string& out) {
  std::ostringstream json;
  json << "{\"bench\":\"memory_scaling\",\"epsilon\":0.5,\"seed\":21";

  // --- 1. DP kernel: end-to-end mechanism + frontier-only microbench. ---
  std::cerr << "dp kernel sweep (columns vs scalar oracle):\n";
  json << ",\"dp_kernel\":[";
  double largest_n_speedup = 0.0;
  const std::vector<std::size_t> sizes = {100, 200, 400};
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const std::size_t n = sizes[k];
    const std::size_t reps = n >= 400 ? 2 : 3;
    const auto instance = bench_shapes::single_task_scaling_instance(n, 21);
    // Honesty check first: the kernels must agree bit for bit before their
    // times are compared (the equivalence suites pin this; re-assert here).
    const auto columns_outcome =
        auction::single_task::run_mechanism(instance, config_for(DpKernel::kColumns));
    const auto oracle_outcome =
        auction::single_task::run_mechanism(instance, config_for(DpKernel::kScalarOracle));
    if (columns_outcome.allocation.winners != oracle_outcome.allocation.winners ||
        columns_outcome.allocation.total_cost != oracle_outcome.allocation.total_cost) {
      std::cerr << "kernel outcomes diverged at n=" << n << "\n";
      return 1;
    }
    const double columns_s =
        best_mechanism_seconds(instance, config_for(DpKernel::kColumns), reps);
    const double oracle_s =
        best_mechanism_seconds(instance, config_for(DpKernel::kScalarOracle), reps);
    const auto items = frontier_items(4 * n, 21 + n);
    const auto requirement = auction::coverage::quantize(0.05 * static_cast<double>(n));
    const double frontier_columns_s =
        best_frontier_seconds(items, requirement, DpKernel::kColumns, reps);
    const double frontier_oracle_s =
        best_frontier_seconds(items, requirement, DpKernel::kScalarOracle, reps);
    const double mech_speedup = oracle_s / columns_s;
    const double frontier_speedup = frontier_oracle_s / frontier_columns_s;
    largest_n_speedup = mech_speedup;
    std::cerr << "  n=" << n << ": mechanism " << columns_s * 1e3 << " ms vs " << oracle_s * 1e3
              << " ms (" << mech_speedup << "x), frontier " << frontier_columns_s * 1e3
              << " ms vs " << frontier_oracle_s * 1e3 << " ms (" << frontier_speedup << "x)\n";
    json << (k > 0 ? "," : "") << "{\"users\":" << n << ",\"reps\":" << reps
         << ",\"winners\":" << columns_outcome.allocation.winners.size()
         << ",\"mechanism\":{\"columns_ms\":" << columns_s * 1e3
         << ",\"scalar_oracle_ms\":" << oracle_s * 1e3 << ",\"speedup\":" << mech_speedup
         << "},\"frontier_sweep\":{\"items\":" << items.size()
         << ",\"columns_ms\":" << frontier_columns_s * 1e3
         << ",\"scalar_oracle_ms\":" << frontier_oracle_s * 1e3
         << ",\"speedup\":" << frontier_speedup << "}}";
  }
  json << "],\"outcomes\":\"bit-identical across kernels at every n\"";

  // --- 2. Streaming trace: peak RSS, one subprocess per storage mode. ---
  std::cerr << "trace RSS sweep (AoS CSV load vs mapped columns):\n";
  trace::CityConfig city_config;
  city_config.num_taxis = 400;
  city_config.num_days = 12;
  city_config.trips_per_day = 40;
  const trace::CityModel city(city_config);
  const auto dataset = trace::generate_trace(city);
  const auto tmp = std::filesystem::temp_directory_path();
  const auto csv_path = (tmp / "mcs_memory_scaling_trace.csv").string();
  const auto col_path = (tmp / "mcs_memory_scaling_trace.cols").string();
  trace::save_csv(csv_path, dataset);
  trace::write_trace_columns(dataset, col_path);

  const std::string self = self_path(argv0);
  const std::size_t aos_kb = child_vmhwm(self + " --rss-mode aos " + csv_path);
  const std::size_t mapped_kb = child_vmhwm(self + " --rss-mode mapped " + col_path);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(col_path);
  if (aos_kb == 0 || mapped_kb == 0) {
    std::cerr << "  skipped (no /proc or child failed)\n";
    json << ",\"trace_rss\":\"skipped: no /proc interface\"";
  } else {
    std::cerr << "  " << dataset.size() << " events: aos " << aos_kb << " KiB vs mapped "
              << mapped_kb << " KiB peak RSS (" << static_cast<double>(aos_kb) / mapped_kb
              << "x)\n";
    json << ",\"trace_rss\":{\"events\":" << dataset.size() << ",\"taxis\":"
         << dataset.taxi_ids().size() << ",\"aos_csv_vmhwm_kb\":" << aos_kb
         << ",\"mapped_columns_vmhwm_kb\":" << mapped_kb
         << ",\"peak_rss_reduction\":" << static_cast<double>(aos_kb) / mapped_kb << "}";
  }
  json << ",\"largest_n_mechanism_speedup\":" << largest_n_speedup << "}";

  std::cout << json.str() << "\n";
  for (const std::string& path : {out, [] {
         const char* env = std::getenv("MCS_BENCH_JSON");
         return std::string(env != nullptr ? env : "");
       }()}) {
    if (path.empty()) {
      continue;
    }
    std::ofstream file(path, std::ios::app);
    file << json.str() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() >= 2 && args[0] == "--rss-mode") {
    return run_rss_mode(args[1], args.size() > 2 ? args[2] : "");
  }
  if (!args.empty() && args[0] == "--dp-only") {
    const std::string kernel = args.size() > 1 ? args[1] : "columns";
    const std::size_t n = args.size() > 2 ? std::stoull(args[2]) : 400;
    const std::size_t reps = args.size() > 3 ? std::stoull(args[3]) : 3;
    return run_dp_only(kernel, n, reps);
  }
  std::string out;
  for (std::size_t k = 0; k + 1 < args.size(); k += 2) {
    if (args[k] == "--out") {
      out = args[k + 1];
    }
  }
  return run(argv[0], out);
}
