// The single_task_batch workload: closed-loop Engine::run batches of the
// paper's Table II single-task population (bench_shapes::
// single_task_scaling_instance) at n = 200 under the default MechanismConfig
// (ε = 0.1, kDpReuse probes, kColumns frontier kernel).
//
// Untraced run: set-up (engine construction plus one warm-up batch of 16
// auctions, five times), the timed window in sub-windows of one pass over the
// input pool, then the output checks. A timed batch holds 64 auctions, 16 per
// pool worker, so each batch averages over inputs and over seconds of host
// noise; its end-to-end figures are taken over the whole window. Traced run: phase A alternates telemetry off / on
// blocks for the overhead and pool use; phase B runs one pass over the input
// pool with telemetry on and a span around each Engine::run call, for the
// single-task per-layer metrics.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "bench_shapes.hpp"
#include "auction/engine.hpp"
#include "obs/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mcs;

constexpr std::size_t kUsers = 200;
constexpr std::size_t kPool = 128;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kWarmup = 16;

using Batch = std::vector<auction::SingleTaskInstance>;

struct BatchSample {
  double latency_s = 0.0;
  std::size_t ok = 0;
};

/// Bit-identity of every outcome with the first outcome of the same input.
class Checker {
 public:
  explicit Checker(Result& result) : result_(result), first_(kPool) {}

  void observe(const std::vector<auction::MechanismOutcome>& outcomes, std::size_t first_input) {
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      auto& first = first_[first_input + k];
      if (!outcomes[k].allocation.feasible) {
        result_.fail("pool input " + std::to_string(first_input + k) + " is infeasible");
      }
      if (!first) {
        first = outcomes[k];
      } else if (!same_outcome(*first, outcomes[k])) {
        result_.fail("pool input " + std::to_string(first_input + k) +
                     " differs from an earlier run of the same input");
      }
    }
  }

  const std::optional<auction::MechanismOutcome>& first(std::size_t input) const {
    return first_[input];
  }

 private:
  Result& result_;
  std::vector<std::optional<auction::MechanismOutcome>> first_;
};

struct Workload {
  std::vector<Batch> batches;
  Batch warmup;  // the first kWarmup inputs of the pool
  auction::MechanismConfig config;  // the default: ε = 0.1, kDpReuse, kColumns
};

/// Runs `batch`, whose first auction is pool input `first_input`.
BatchSample run_batch(const auction::Engine& engine, const Workload& w, const Batch& batch,
                      std::size_t first_input, Checker& checker, Result& result) {
  BatchSample sample;
  result.attempted += batch.size();
  const auto start = Clock::now();
  try {
    const auto outcomes = engine.run(batch, w.config);
    sample.latency_s = seconds_between(start, Clock::now());
    sample.ok = batch.size();
    checker.observe(outcomes, first_input);
  } catch (const std::exception& e) {
    sample.latency_s = seconds_between(start, Clock::now());
    result.failed += batch.size();
    result.fail(std::string("batch failed: ") + e.what());
  }
  return sample;
}

/// Sub-windows of one pass over the pool each, until `seconds` have passed
/// (at least one).
std::vector<std::vector<BatchSample>> run_windows(const auction::Engine& engine,
                                                  const Workload& w, double seconds,
                                                  Checker& checker, Result& result) {
  std::vector<std::vector<BatchSample>> windows;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    auto& window = windows.emplace_back();
    for (std::size_t b = 0; b < w.batches.size(); ++b) {
      window.push_back(run_batch(engine, w, w.batches[b], b * kBatch, checker, result));
    }
  } while (Clock::now() < deadline);
  return windows;
}

double busy_seconds(const std::vector<BatchSample>& samples) {
  double total = 0.0;
  for (const auto& sample : samples) {
    total += sample.latency_s;
  }
  return total;
}

/// A sampled subset of the pool, chosen by the seed, must match the oracle
/// configuration (full-solve probes on the scalar frontier kernel).
void check_oracle(const auction::Engine& engine, const Workload& w, const Checker& checker,
                  std::uint64_t seed, Result& result) {
  auction::MechanismConfig oracle = w.config;
  oracle.single_task.probe_strategy = auction::ProbeStrategy::kFullSolve;
  oracle.single_task.dp_kernel = auction::DpKernel::kScalarOracle;
  std::vector<std::size_t> inputs = {seed % kPool, (seed + kPool / 2 + 1) % kPool};
  Batch batch;
  for (const std::size_t k : inputs) {
    batch.push_back(w.batches[k / kBatch][k % kBatch]);
  }
  const auto outcomes = engine.run(batch, oracle);
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const auto& first = checker.first(inputs[s]);
    if (!first || !same_outcome(*first, outcomes[s])) {
      result.fail("pool input " + std::to_string(inputs[s]) + " differs from the oracle config");
    }
  }
}

/// Phase A of the traced run: alternating telemetry off / on blocks. A pass
/// over the pool takes seconds here, so each block is an eighth of the window
/// (in practice one or two passes) to keep the traced run near its length.
void traced_blocks(const auction::Engine& engine, const Workload& w, double seconds,
                   Checker& checker, Result& result) {
  auto& registry = obs::Registry::global();
  std::vector<double> untraced;
  std::vector<double> traced;
  double traced_busy_s = 0.0;
  std::int64_t busy_micros = 0;
  for (int b = 0; b < 4; ++b) {
    const bool on = b % 2 == 1;
    obs::set_enabled(on);
    const auto before = registry.snapshot().value_of("pool.busy_micros");
    const auto windows = run_windows(engine, w, seconds / 8.0, checker, result);
    obs::set_enabled(false);
    if (on) {
      busy_micros += registry.snapshot().value_of("pool.busy_micros") - before;
    }
    for (const auto& window : windows) {
      for (const auto& sample : window) {
        (on ? traced : untraced).push_back(sample.latency_s);
      }
      if (on) {
        traced_busy_s += busy_seconds(window);
      }
    }
  }
  const auto workers = static_cast<double>(engine.worker_count());
  result.metrics["pool.busy_frac"] =
      static_cast<double>(busy_micros) / (traced_busy_s * workers * 1e6);
  result.metrics["trace.overhead_ratio"] = mean(untraced) / mean(traced);
  result.samples["trace.overhead_ratio"] = traced.size();
}

/// Phase B of the traced run: one pass over the pool with telemetry on.
void decompose(const auction::Engine& engine, const Workload& w, const Checker& checker,
               Tracer& tracer, Result& result) {
  const obs::ScopedTelemetry telemetry(true);
  double wd_s = 0.0;
  double rewards_s = 0.0;
  double skew = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::size_t auctions = 0;
  for (std::size_t b = 0; b < w.batches.size(); ++b) {
    const ScopedSpan root(tracer, "batch", b);
    std::vector<auction::MechanismOutcome> outcomes;
    {
      const ScopedSpan span(tracer, "engine.batch", b, root.index());
      outcomes = engine.run(w.batches[b], w.config);
    }
    double slowest = 0.0;
    double total = 0.0;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const auto& t = outcomes[k].telemetry;
      const double slot_s = t.winner_determination_seconds + t.rewards_seconds;
      slowest = std::max(slowest, slot_s);
      total += slot_s;
      wd_s += t.winner_determination_seconds;
      rewards_s += t.rewards_seconds;
      probes += t.winner_determination.probes + t.rewards.probes;
      hits += t.winner_determination.dp_reuse_hits + t.rewards.dp_reuse_hits;
      fallbacks += t.winner_determination.dp_reuse_fallbacks + t.rewards.dp_reuse_fallbacks;
      const auto& first = checker.first(b * kBatch + k);
      if (first && !same_outcome(*first, outcomes[k])) {
        result.fail("traced pool input " + std::to_string(b * kBatch + k) +
                    " differs from the untraced run");
      }
    }
    skew += slowest / (total / static_cast<double>(outcomes.size()));
    auctions += outcomes.size();
  }
  const double batches = static_cast<double>(w.batches.size());
  const double per_auction = 1.0 / static_cast<double>(auctions);
  const auto totals = tracer.totals();
  auto& m = result.metrics;
  m["engine.batch_ms"] = totals.at("engine.batch").total_s * 1e3 / batches;
  m["engine.shard_skew"] = skew / batches;
  m["single_task.wd_ms"] = wd_s * 1e3 * per_auction;
  m["single_task.rewards_ms"] = rewards_s * 1e3 * per_auction;
  m["single_task.probes"] = static_cast<double>(probes) * per_auction;
  m["single_task.dp_reuse_hit_ratio"] =
      probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
  m["trace.round_ms"] = totals.at("batch").total_s * 1e3 / batches;
  m["trace.unattributed_ms"] = totals.at("batch").self_s * 1e3 / batches;
  result.counters["single_task.probes"] = static_cast<double>(probes);
  result.counters["single_task.dp_reuse_hits"] = static_cast<double>(hits);
  result.counters["single_task.dp_reuse_fallbacks"] = static_cast<double>(fallbacks);
}

}  // namespace

Result run_single_task_batch(const Options& options) {
  Result result;
  Workload w;
  for (std::size_t k = 0; k < kPool; ++k) {
    if (k % kBatch == 0) {
      w.batches.emplace_back();
    }
    w.batches.back().push_back(
        bench_shapes::single_task_scaling_instance(kUsers, derive_seed(options.seed, 2, k)));
  }
  w.warmup.assign(w.batches[0].begin(), w.batches[0].begin() + kWarmup);
  Checker checker(result);

  std::vector<double> setup_times;
  std::optional<auction::Engine> engine;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    engine.reset();
    const auto start = Clock::now();
    engine.emplace();
    run_batch(*engine, w, w.warmup, 0, checker, result);
    setup_times.push_back(seconds_between(start, Clock::now()));
  }

  if (!options.trace) {
    WindowStats stats;
    for (const auto& samples : run_windows(*engine, w, options.seconds, checker, result)) {
      std::vector<double> latencies;
      std::size_t ok_batches = 0;
      std::size_t ok_auctions = 0;
      for (const auto& sample : samples) {
        latencies.push_back(sample.latency_s);
        ok_batches += sample.ok == kBatch ? 1 : 0;
        ok_auctions += sample.ok;
      }
      // A "round" of this workload is one Engine::run batch.
      stats.add(latencies, ok_batches, samples.size(), ok_auctions, busy_seconds(samples));
    }
    stats.report(result, WindowStats::Summary::kWholeWindow);
    result.metrics["setup_s"] = median(setup_times);
    result.metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    Tracer tracer;
    traced_blocks(*engine, w, options.seconds, checker, result);
    decompose(*engine, w, checker, tracer, result);
    // No service round runs in this workload.
    for (const char* name :
         {"service.partition_ms", "service.partition_allocs", "service.queue_wait_ms",
          "service.post_merge_ms", "service.journal_append_ms", "service.journal_bytes",
          "service.compute_ms", "service.merge_ms", "service.straddlers",
          "multi_task.view_build_ms", "multi_task.wd_ms", "multi_task.rewards_ms",
          "multi_task.heap_reevaluations", "multi_task.probes_per_winner", "gen.late_p99_ms"}) {
      result.metrics[name] = 0.0;
    }
    const auto path = options.trace_dir / (options.workload + "-seed" +
                                           std::to_string(options.seed) + ".json");
    if (!tracer.write_json(path.string())) {
      result.fail("cannot write " + path.string());
    }
  }
  check_oracle(*engine, w, checker, options.seed, result);
  return result;
}

}  // namespace perfbench
