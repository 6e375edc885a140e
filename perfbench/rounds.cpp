// The three service-round workloads: round_sharded, round_flat and
// round_small. Each drives service::CampaignService through its public
// submit_round / wait_outcome / stream_telemetry API.
//
// Untraced run: set-up (service construction plus warm-up rounds, five
// times), then the timed window in sub-windows of whole passes over the
// input pool, then the output checks.
//
// Traced run: the same set-up, then phase A — the window split into four
// alternating blocks with telemetry off, on, off, on, which gives the
// service-side timings (queue wait, compute, sink-to-wake) and the tracing
// overhead — then phase B, one pass over the input pool through the layers'
// public functions (partition_round, MultiTaskView::from_instance,
// Engine::run_isolated, merge_outcomes, ServiceJournalWriter::append) with a
// span around each call. Phase B mirrors the service's own compute path, and
// its outcomes are checked against the service's.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "alloc_counter.hpp"
#include "auction/multi_task/view.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mcs;

struct RoundWorkload {
  std::size_t users = 0;
  std::size_t tasks = 0;
  std::size_t shards = 1;
  /// Residue classes of the generator: task j lies in cell j, and a user's
  /// own tasks all share one class mod `groups`.
  std::size_t groups = 16;
  /// Share of users who also bid on one task of another class (straddlers
  /// whenever the two classes map to different shards).
  double straddle_fraction = 0.0;
  std::size_t retry_attempts = 1;
  /// Open-loop offered rate in rounds per second; 0 means a closed loop
  /// with one round in flight.
  double offered_rate = 0.0;
  std::size_t pool = 1;  ///< distinct rounds generated before the window
  /// Rounds per sub-window: a whole number of passes over the pool, so every
  /// sub-window runs the same inputs and differs from the others only by
  /// timing noise.
  std::size_t window_rounds = 1;
  std::size_t warmup_rounds = 1;  ///< rounds run inside each set-up
  bool check_flat = false;        ///< compare with Engine::run_one_isolated
  bool check_journal = false;     ///< reload the journal and compare
};

RoundWorkload workload_for(const std::string& name) {
  RoundWorkload w;
  if (name == "round_sharded") {
    w.users = 100000;
    w.tasks = 128;
    w.shards = 16;
    w.pool = 6;
    w.window_rounds = 12;
    w.warmup_rounds = 2;
    w.check_flat = true;
  } else if (name == "round_flat") {
    w.users = 25000;
    w.tasks = 128;
    w.shards = 1;
    w.pool = 6;
    w.window_rounds = 12;
    w.warmup_rounds = 2;
    w.check_flat = true;
  } else if (name == "round_small") {
    w.users = 2000;
    w.tasks = 32;
    w.shards = 4;
    w.groups = 4;
    w.straddle_fraction = 0.075;
    w.retry_attempts = 3;
    w.offered_rate = 200.0;
    w.pool = 200;
    w.window_rounds = 200;  // one second at the offered rate
    w.warmup_rounds = 16;
    w.check_journal = true;
  } else {
    throw std::invalid_argument("unknown round workload " + name);
  }
  return w;
}

/// One round of the bench/service_load traffic: task j in cell j, every
/// user's tasks inside one residue class mod `groups`, each class task taken
/// with probability 1/2. With straddle_fraction == 0 the draws are exactly
/// service_load's make_round, so the traffic is residue-pure.
service::GeoRound make_round(const RoundWorkload& w, std::uint64_t seed) {
  service::GeoRound round;
  round.instance.requirement_pos.assign(w.tasks, 0.35);
  round.task_cells.reserve(w.tasks);
  for (std::size_t j = 0; j < w.tasks; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  const auto groups = static_cast<std::int64_t>(w.groups);
  common::Rng rng(seed);
  round.instance.users.reserve(w.users);
  for (std::size_t i = 0; i < w.users; ++i) {
    auction::MultiTaskUserBid bid;
    bid.cost = rng.uniform(5.0, 25.0);
    const auto group = static_cast<std::size_t>(rng.uniform_int(0, groups - 1));
    for (std::size_t j = group; j < w.tasks; j += w.groups) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        bid.tasks.push_back(static_cast<auction::TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.1, 0.5));
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(static_cast<auction::TaskIndex>(group));
      bid.pos.push_back(rng.uniform(0.1, 0.5));
    }
    if (w.straddle_fraction > 0.0 && rng.uniform(0.0, 1.0) < w.straddle_fraction) {
      const auto other =
          static_cast<std::int64_t>(group) + 1 + rng.uniform_int(0, groups - 2);
      const auto cls = other % groups;
      const auto slots = (static_cast<std::int64_t>(w.tasks) - cls + groups - 1) / groups;
      const auto task =
          static_cast<auction::TaskIndex>(cls + groups * rng.uniform_int(0, slots - 1));
      const auto at = std::lower_bound(bid.tasks.begin(), bid.tasks.end(), task);
      const auto offset = at - bid.tasks.begin();
      bid.tasks.insert(at, task);
      bid.pos.insert(bid.pos.begin() + offset, rng.uniform(0.1, 0.5));
    }
    round.instance.users.push_back(std::move(bid));
  }
  return round;
}

/// The pool is generated on two threads (the benchmark's generator budget).
std::vector<service::GeoRound> make_pool(const RoundWorkload& w, std::uint64_t seed) {
  std::vector<service::GeoRound> pool(w.pool);
  auto fill = [&](std::size_t first) {
    for (std::size_t k = first; k < pool.size(); k += 2) {
      pool[k] = make_round(w, derive_seed(seed, 1, k));
    }
  };
  std::thread helper(fill, 1);
  fill(0);
  helper.join();
  return pool;
}

/// The workload's telemetry sink: serializes every round the way a
/// dashboard would and keeps its delivery time for the traced metrics.
class SinkLog {
 public:
  struct Entry {
    Clock::time_point at{};
    double compute_s = 0.0;
  };

  /// Rounds with larger ids are not logged; far above what a 60 s run of
  /// any workload submits.
  static constexpr std::size_t kCapacity = 1 << 17;

  SinkLog() : entries_(kCapacity) {}

  void record(const service::RoundTelemetry& telemetry) {
    const auto at = Clock::now();
    static_cast<void>(service::to_json(telemetry));
    if (telemetry.round < entries_.size()) {
      entries_[telemetry.round] = Entry{at, telemetry.latency_seconds};
    }
  }

  /// Valid once wait_outcome for the round has returned (the service runs
  /// sinks before it publishes the outcome).
  const Entry& entry(service::RoundId round) const { return entries_.at(round); }

 private:
  std::vector<Entry> entries_;
};

/// A running service with its sink and journal. The sink is declared first
/// so it outlives the service that calls it.
struct LiveService {
  std::unique_ptr<SinkLog> sink;
  std::filesystem::path journal;
  service::ServiceConfig config;
  std::unique_ptr<service::CampaignService> service;
};

service::ServiceConfig service_config(const RoundWorkload& w,
                                      const std::filesystem::path& journal) {
  service::ServiceConfig config;
  config.shards = service::ShardMap(w.shards);
  config.journal_path = journal;
  config.retry.max_attempts = w.retry_attempts;
  return config;
}

/// Every polled outcome goes through here: status, straddler expectations,
/// and bit-identity with the first outcome of the same pool input.
class Checker {
 public:
  Checker(const RoundWorkload& w, Result& result)
      : workload_(w), result_(result), first_(w.pool) {}

  void observe(const service::RoundOutcome& out, std::size_t input) {
    ++result_.attempted;
    if (out.status != auction::AuctionStatus::kOk) {
      ++result_.failed;
      return;
    }
    const bool straddled = out.straddlers > 0;
    if (straddled != (workload_.straddle_fraction > 0.0)) {
      result_.fail("round " + std::to_string(out.round) + " has " +
                   std::to_string(out.straddlers) + " straddlers");
    }
    if (!first_[input]) {
      first_[input] = out.outcome;
    } else if (!same_outcome(*first_[input], out.outcome)) {
      result_.fail("round " + std::to_string(out.round) +
                   " differs from an earlier round of the same input");
    }
    if (workload_.check_journal) {
      kept_.push_back(out);
    }
  }

  /// A new service starts a new journal; only its rounds are kept.
  void new_service() { kept_.clear(); }

  const std::optional<auction::MechanismOutcome>& first(std::size_t input) const {
    return first_[input];
  }
  const std::vector<service::RoundOutcome>& kept() const { return kept_; }

 private:
  const RoundWorkload& workload_;
  Result& result_;
  std::vector<std::optional<auction::MechanismOutcome>> first_;
  std::vector<service::RoundOutcome> kept_;
};

struct RoundSample {
  service::RoundId id = 0;
  Clock::time_point submit{};
  Clock::time_point wake{};
  double latency_s = 0.0;  ///< closed loop: submit → wake; open loop: due → wake
  double late_s = 0.0;     ///< open loop: submit − due
};

struct Block {
  std::vector<RoundSample> rounds;
  double busy_s = 0.0;  ///< Σ round intervals (closed loop) or wall time (open loop)
  std::size_t ok = 0;
  std::size_t shard_auctions = 0;
};

void account(Block& block, RoundSample sample, const service::RoundOutcome& out) {
  if (out.status == auction::AuctionStatus::kOk) {
    ++block.ok;
    block.shard_auctions += out.shards_run;
  }
  block.rounds.push_back(sample);
}

Block run_closed(LiveService& live, const std::vector<service::GeoRound>& pool,
                 std::size_t count, Checker& checker) {
  Block block;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t input = i % pool.size();
    service::GeoRound copy = pool[input];
    RoundSample sample;
    sample.submit = Clock::now();
    sample.id = live.service->submit_round(std::move(copy));
    const auto out = live.service->wait_outcome(sample.id);
    sample.wake = Clock::now();
    sample.latency_s = seconds_between(sample.submit, sample.wake);
    block.busy_s += sample.latency_s;
    account(block, sample, out);
    checker.observe(out, input);
  }
  return block;
}

Block run_open(LiveService& live, const std::vector<service::GeoRound>& pool, std::size_t count,
               double rate, Checker& checker) {
  std::vector<Clock::time_point> submitted(count);
  std::vector<service::RoundId> ids(count);
  std::atomic<std::size_t> ready{0};
  constexpr std::size_t kStopped = std::numeric_limits<std::size_t>::max();
  // A short lead lets the generator thread start before its first due time.
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  // The generator publishes how many rounds it has submitted; a submit that
  // throws publishes kStopped instead, and the waiter stops.
  std::exception_ptr generator_error;
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < count; ++i) {
        service::GeoRound copy = pool[i % pool.size()];
        std::this_thread::sleep_until(due(i));
        submitted[i] = Clock::now();
        ids[i] = live.service->submit_round(std::move(copy));
        ready.store(i + 1, std::memory_order_release);
        ready.notify_one();
      }
    } catch (...) {
      generator_error = std::current_exception();
      ready.store(kStopped, std::memory_order_release);
      ready.notify_one();
    }
  });
  Block block;
  Clock::time_point last_wake = start;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t seen = ready.load(std::memory_order_acquire);
      while (seen <= i) {
        ready.wait(seen, std::memory_order_acquire);
        seen = ready.load(std::memory_order_acquire);
      }
      if (seen == kStopped) {
        break;
      }
      const auto out = live.service->wait_outcome(ids[i]);
      RoundSample sample;
      sample.id = ids[i];
      sample.submit = submitted[i];
      sample.wake = last_wake = Clock::now();
      sample.latency_s = seconds_between(due(i), sample.wake);
      sample.late_s = seconds_between(due(i), submitted[i]);
      account(block, sample, out);
      checker.observe(out, i % pool.size());
    }
  } catch (...) {
    generator.join();
    throw;
  }
  generator.join();
  if (generator_error) {
    std::rethrow_exception(generator_error);
  }
  block.busy_s = seconds_between(start, last_wake);
  return block;
}

/// Sub-windows of w.window_rounds rounds each until `seconds` have passed
/// (at least one).
std::vector<Block> run_windows(const RoundWorkload& w, LiveService& live,
                               const std::vector<service::GeoRound>& pool, double seconds,
                               Checker& checker) {
  std::vector<Block> blocks;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    blocks.push_back(w.offered_rate > 0.0
                         ? run_open(live, pool, w.window_rounds, w.offered_rate, checker)
                         : run_closed(live, pool, w.window_rounds, checker));
  } while (Clock::now() < deadline);
  return blocks;
}

/// Service construction plus warm-up rounds, kSetupRepetitions times; the
/// last service stays up for the window. Returns the median set-up time.
double set_up(const RoundWorkload& w, const Options& options,
              const std::vector<service::GeoRound>& pool, Checker& checker, LiveService& live) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    live.service.reset();
    live.sink = std::make_unique<SinkLog>();
    live.journal = options.work_dir / ("journal-" + std::to_string(rep));
    std::filesystem::remove(live.journal);
    live.config = service_config(w, live.journal);
    checker.new_service();
    const auto start = Clock::now();
    live.service = std::make_unique<service::CampaignService>(live.config);
    live.service->stream_telemetry(
        [sink = live.sink.get()](const service::RoundTelemetry& t) { sink->record(t); });
    for (std::size_t r = 0; r < w.warmup_rounds; ++r) {
      const std::size_t input = r % pool.size();
      const auto id = live.service->submit_round(pool[input]);
      checker.observe(live.service->wait_outcome(id), input);
    }
    times.push_back(seconds_between(start, Clock::now()));
  }
  return median(times);
}

std::vector<double> latencies(const Block& block) {
  std::vector<double> values;
  values.reserve(block.rounds.size());
  for (const auto& sample : block.rounds) {
    values.push_back(sample.latency_s);
  }
  return values;
}

/// Output checks that run after the window: flat-engine equivalence of
/// every pooled input seen, and the journal reload.
void check_outputs(const RoundWorkload& w, const std::vector<service::GeoRound>& pool,
                   const Checker& checker, const LiveService& live, Result& result) {
  if (w.check_flat) {
    const auction::Engine engine;
    std::size_t compared = 0;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      if (!checker.first(k)) {
        continue;
      }
      const auto reference = engine.run_one_isolated(pool[k].instance, live.config.mechanism);
      ++compared;
      if (reference.status != auction::AuctionStatus::kOk ||
          !same_outcome(reference.outcome, *checker.first(k))) {
        result.fail("pool input " + std::to_string(k) + " differs from the flat engine run");
      } else if (!reference.outcome.allocation.feasible) {
        result.fail("pool input " + std::to_string(k) + " is infeasible");
      }
    }
    if (compared == 0) {
      result.fail("no round completed, nothing to compare");
    }
  }
  if (w.check_journal) {
    const auto journal = service::load_service_journal(live.journal);
    for (const auto& out : checker.kept()) {
      if (out.round >= journal.records.size()) {
        result.fail("round " + std::to_string(out.round) + " is missing from the journal");
        continue;
      }
      const auto& record = journal.records[out.round];
      if (record.round != out.round || record.status != out.status ||
          record.straddlers != out.straddlers || record.shards_run != out.shards_run ||
          !same_outcome(record.outcome, out.outcome)) {
        result.fail("journal record of round " + std::to_string(out.round) +
                    " differs from the polled outcome");
      }
    }
    const auto polled = live.service->stats().completed;
    if (journal.records.size() != polled) {
      result.fail("journal holds " + std::to_string(journal.records.size()) +
                  " rounds, the service completed " + std::to_string(polled));
    }
  }
}

/// Phase B: one pass over the pool through the layers' public functions,
/// with a span around each call. Fills the per-layer metrics and the exact
/// counters, and checks each outcome against the service's.
void decompose(const RoundWorkload& w, const std::vector<service::GeoRound>& pool,
               const Checker& checker, const LiveService& live, const Options& options,
               Tracer& tracer, Result& result) {
  const obs::ScopedTelemetry telemetry(true);
  const auction::Engine engine;
  const auto& config = live.config;
  const auto journal_path = options.work_dir / "decomposition-journal";
  std::filesystem::remove(journal_path);
  service::ServiceJournalWriter writer(journal_path, service::service_config_fingerprint(config));

  double partition_allocs = 0.0;
  double straddlers = 0.0;
  double journal_bytes = 0.0;
  double wd_s = 0.0;
  double rewards_s = 0.0;
  double skew = 0.0;
  std::uint64_t heap_reevaluations = 0;
  std::uint64_t probes = 0;
  std::uint64_t winners = 0;
  // The view is built only to be timed; checking its size keeps the build
  // observable.
  auto build_view = [&](const auction::MultiTaskInstance& instance, std::size_t input) {
    const auto view = auction::multi_task::MultiTaskView::from_instance(instance);
    if (view.num_users() != instance.num_users()) {
      result.fail("view of pool input " + std::to_string(input) + " lost users");
    }
  };
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const auto& round = pool[k];
    const auto request = static_cast<std::uint64_t>(k);
    const ScopedSpan root(tracer, "round", request);
    std::vector<auction::AuctionOutcome> slots;
    auction::AuctionOutcome merged;
    std::size_t round_straddlers = 0;
    std::size_t shards_run = 1;
    if (w.shards > 1) {
      std::optional<service::RoundPartition> partition;
      {
        const ScopedSpan span(tracer, "service.partition", request, root.index());
        const AllocationScope allocations;
        partition = service::partition_round(round, config.shards);
        partition_allocs += static_cast<double>(allocations.count());
      }
      round_straddlers = partition->straddlers.size();
      shards_run = partition->shards.size();
      {
        const ScopedSpan span(tracer, "multi_task.view_build", request, root.index());
        for (const auto& slice : partition->shards) {
          build_view(slice.instance, k);
        }
      }
      {
        // Mirrors the service: the serial per-shard path when retries are
        // configured, one engine batch otherwise.
        const ScopedSpan span(tracer, "engine.batch", request, root.index());
        if (w.retry_attempts > 1) {
          for (const auto& slice : partition->shards) {
            slots.push_back(engine.run_one_isolated(slice.instance, config.mechanism));
          }
        } else {
          std::vector<auction::MultiTaskInstance> batch;
          batch.reserve(partition->shards.size());
          for (auto& slice : partition->shards) {
            batch.push_back(std::move(slice.instance));
          }
          slots = engine.run_isolated(batch, config.mechanism);
        }
      }
      {
        const ScopedSpan span(tracer, "service.merge", request, root.index());
        merged = service::merge_outcomes(round.instance, *partition, slots,
                                         config.mechanism.multi_task.partial_coverage,
                                         config.merge_policy);
      }
    } else {
      {
        const ScopedSpan span(tracer, "multi_task.view_build", request, root.index());
        build_view(round.instance, k);
      }
      {
        const ScopedSpan span(tracer, "engine.batch", request, root.index());
        merged = engine.run_one_isolated(round.instance, config.mechanism);
      }
      slots.push_back(merged);
    }
    {
      const ScopedSpan span(tracer, "service.journal_append", request, root.index());
      service::ServiceJournalRecord record;
      record.round = k;
      record.status = merged.status;
      record.users = round.instance.num_users();
      record.tasks = round.instance.num_tasks();
      record.shards_run = shards_run;
      record.straddlers = round_straddlers;
      record.outcome = merged.outcome;
      record.error = merged.error;
      const auto before = std::filesystem::file_size(journal_path);
      writer.append(record);
      journal_bytes += static_cast<double>(std::filesystem::file_size(journal_path) - before);
    }
    if (checker.first(k) && !same_outcome(*checker.first(k), merged.outcome)) {
      result.fail("decomposed pool input " + std::to_string(k) + " differs from the service");
    }
    straddlers += static_cast<double>(round_straddlers);
    double slowest = 0.0;
    double total = 0.0;
    for (const auto& slot : slots) {
      const auto& t = slot.outcome.telemetry;
      const double slot_s = t.winner_determination_seconds + t.rewards_seconds;
      slowest = std::max(slowest, slot_s);
      total += slot_s;
      wd_s += t.winner_determination_seconds;
      rewards_s += t.rewards_seconds;
      heap_reevaluations +=
          t.winner_determination.heap_reevaluations + t.rewards.heap_reevaluations;
      probes += t.winner_determination.probes + t.rewards.probes;
    }
    skew += total > 0.0 ? slowest / (total / static_cast<double>(slots.size())) : 1.0;
    winners += merged.outcome.allocation.winners.size();
  }
  std::filesystem::remove(journal_path);

  const double rounds = static_cast<double>(pool.size());
  const auto totals = tracer.totals();
  auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s * 1e3 / rounds;
  };
  auto& m = result.metrics;
  m["service.partition_ms"] = mean_ms("service.partition");
  m["service.partition_allocs"] = partition_allocs / rounds;
  m["service.merge_ms"] = mean_ms("service.merge");
  m["service.journal_append_ms"] = mean_ms("service.journal_append");
  m["service.journal_bytes"] = journal_bytes / rounds;
  m["service.straddlers"] = straddlers / rounds;
  m["engine.batch_ms"] = mean_ms("engine.batch");
  m["engine.shard_skew"] = skew / rounds;
  m["multi_task.view_build_ms"] = mean_ms("multi_task.view_build");
  m["multi_task.wd_ms"] = wd_s * 1e3 / rounds;
  m["multi_task.rewards_ms"] = rewards_s * 1e3 / rounds;
  m["multi_task.heap_reevaluations"] = static_cast<double>(heap_reevaluations) / rounds;
  m["multi_task.probes_per_winner"] =
      winners > 0 ? static_cast<double>(probes) / static_cast<double>(winners) : 0.0;
  m["trace.round_ms"] = mean_ms("round");
  m["trace.unattributed_ms"] = totals.at("round").self_s * 1e3 / rounds;

  result.counters["multi_task.probes"] = static_cast<double>(probes);
  result.counters["multi_task.heap_reevaluations"] = static_cast<double>(heap_reevaluations);
  result.counters["multi_task.winners"] = static_cast<double>(winners);
  result.counters["service.partition_allocs"] = partition_allocs;
  result.counters["service.journal_bytes"] = journal_bytes;
  result.counters["service.straddlers"] = straddlers;
}

/// Phase A: alternating untraced / traced blocks through the live service.
void traced_service_blocks(const RoundWorkload& w, LiveService& live,
                           const std::vector<service::GeoRound>& pool, const Options& options,
                           Checker& checker, Tracer& tracer, Result& result) {
  auto& registry = obs::Registry::global();
  std::vector<double> untraced_latency;
  std::vector<double> traced_latency;
  std::vector<double> queue_wait;
  std::vector<double> post_merge;
  std::vector<double> compute;
  std::vector<double> late;
  double traced_busy_s = 0.0;
  std::int64_t busy_micros = 0;
  for (int b = 0; b < 4; ++b) {
    const bool traced = b % 2 == 1;
    obs::set_enabled(traced);
    const auto before = registry.snapshot().value_of("pool.busy_micros");
    const auto blocks = run_windows(w, live, pool, options.seconds / 4.0, checker);
    obs::set_enabled(false);
    if (traced) {
      busy_micros += registry.snapshot().value_of("pool.busy_micros") - before;
    }
    for (const Block& block : blocks) {
      if (traced) {
        traced_busy_s += block.busy_s;
      }
      for (const auto& sample : block.rounds) {
        late.push_back(sample.late_s);
        (traced ? traced_latency : untraced_latency).push_back(sample.latency_s);
        if (!traced) {
          continue;
        }
        // Service-side boundaries are known only from the sink's timestamp,
        // so these spans are recorded after the round.
        const auto& entry = live.sink->entry(sample.id);
        const auto root = tracer.add("service.round", sample.id, -1, sample.submit, sample.wake);
        tracer.add("service.post_merge", sample.id, static_cast<std::ptrdiff_t>(root), entry.at,
                   sample.wake);
        queue_wait.push_back(seconds_between(sample.submit, entry.at));
        post_merge.push_back(seconds_between(entry.at, sample.wake));
        compute.push_back(entry.compute_s);
      }
    }
  }
  auto& m = result.metrics;
  // Submit-to-sink minus compute; run_round_workload also takes out the
  // journal append measured in phase B, which the dispatcher runs between
  // compute and the sink.
  m["service.queue_wait_ms"] = (mean(queue_wait) - mean(compute)) * 1e3;
  m["service.post_merge_ms"] = mean(post_merge) * 1e3;
  m["service.compute_ms"] = mean(compute) * 1e3;
  const auto workers = static_cast<double>(auction::Engine().worker_count());
  m["pool.busy_frac"] = static_cast<double>(busy_micros) / (traced_busy_s * workers * 1e6);
  m["gen.late_p99_ms"] = w.offered_rate > 0.0 ? percentile(late, 0.99) * 1e3 : 0.0;
  m["trace.overhead_ratio"] = mean(untraced_latency) / mean(traced_latency);
  result.samples["trace.overhead_ratio"] = traced_latency.size();
}

}  // namespace

Result run_round_workload(const Options& options) {
  const RoundWorkload w = workload_for(options.workload);
  Result result;
  const auto pool = make_pool(w, options.seed);
  Checker checker(w, result);
  LiveService live;
  const double setup_s = set_up(w, options, pool, checker, live);

  if (!options.trace) {
    WindowStats stats;
    for (const Block& block : run_windows(w, live, pool, options.seconds, checker)) {
      stats.add(latencies(block), block.ok, block.rounds.size(), block.shard_auctions,
                block.busy_s);
    }
    stats.report(result);
    result.metrics["setup_s"] = setup_s;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    Tracer tracer;
    traced_service_blocks(w, live, pool, options, checker, tracer, result);
    decompose(w, pool, checker, live, options, tracer, result);
    auto& queue_wait = result.metrics["service.queue_wait_ms"];
    queue_wait = std::max(0.0, queue_wait - result.metrics["service.journal_append_ms"]);
    for (const char* name :
         {"single_task.wd_ms", "single_task.rewards_ms", "single_task.probes",
          "single_task.dp_reuse_hit_ratio"}) {
      result.metrics[name] = 0.0;  // no single-task auction runs in a round
    }
    const auto path = options.trace_dir / (options.workload + "-seed" +
                                           std::to_string(options.seed) + ".json");
    if (!tracer.write_json(path.string())) {
      result.fail("cannot write " + path.string());
    }
  }
  check_outputs(w, pool, checker, live, result);
  return result;
}

}  // namespace perfbench
