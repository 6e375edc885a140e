#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace mcs::service {

namespace {

using common::format_double;

/// Registry ids of the service's process-wide metrics, resolved once.
struct ServiceMetrics {
  obs::Registry::MetricId submitted;
  obs::Registry::MetricId completed;
  obs::Registry::MetricId replayed;
  obs::Registry::MetricId queue_depth;
  obs::Registry::MetricId shard_retries;
  obs::Registry::MetricId rounds_degraded;
  obs::Registry::MetricId sinks_quarantined;
  obs::Registry::MetricId watchdog_fires;
  obs::Registry::MetricId arrivals;
  obs::Registry::MetricId epochs_completed;
  obs::Registry::MetricId online_accepts;
  obs::Registry::MetricId online_threshold_updates;
  obs::Registry::MetricId online_budget_remaining;

  static const ServiceMetrics& get() {
    static const ServiceMetrics metrics{
        obs::Registry::global().metric("service.rounds_submitted"),
        obs::Registry::global().metric("service.rounds_completed"),
        obs::Registry::global().metric("service.rounds_replayed"),
        obs::Registry::global().metric("service.queue_depth"),
        obs::Registry::global().metric("service.shard_retries"),
        obs::Registry::global().metric("service.rounds_degraded"),
        obs::Registry::global().metric("service.sinks_quarantined"),
        obs::Registry::global().metric("service.watchdog_fires"),
        obs::Registry::global().metric("service.arrivals_submitted"),
        obs::Registry::global().metric("service.epochs_completed"),
        obs::Registry::global().metric("service.online_accepts"),
        obs::Registry::global().metric("service.online_threshold_updates"),
        obs::Registry::global().metric("service.online_budget_remaining_milli"),
    };
    return metrics;
  }
};

}  // namespace

std::string to_json(const RoundTelemetry& telemetry) {
  std::ostringstream out;
  out << "{\"round\":" << telemetry.round                        //
      << ",\"status\":\"" << auction::to_string(telemetry.status) << '"'  //
      << ",\"shards_run\":" << telemetry.shards_run              //
      << ",\"straddlers\":" << telemetry.straddlers              //
      << ",\"shard_retries\":" << telemetry.shard_retries        //
      << ",\"latency_seconds\":" << format_double(telemetry.latency_seconds)
      << ",\"replayed\":" << (telemetry.replayed_from_journal ? 1 : 0)
      << ",\"mechanism\":" << obs::to_json(telemetry.mechanism) << '}';
  return out.str();
}

std::string service_config_fingerprint(const ServiceConfig& config) {
  // Only knobs that shape outcomes; see the declaration for what is excluded
  // (everything covered by a bit-identity contract, plus queue/thread sizes).
  const auto& m = config.mechanism;
  std::ostringstream out;
  out << "shards=" << config.shards.shard_count()                          //
      << " shard_policy=" << static_cast<int>(config.shards.policy())      //
      << " alpha=" << format_double(m.alpha)                               //
      << " auction_seconds=" << format_double(m.time_budget_seconds)       //
      << " degrade=" << (m.degrade_on_timeout ? 1 : 0)                     //
      << " epsilon=" << format_double(m.single_task.epsilon)               //
      << " bisect_iters=" << m.single_task.binary_search_iterations        //
      << " rule=" << static_cast<int>(m.multi_task.critical_bid_rule)      //
      << " partial=" << (m.multi_task.partial_coverage ? 1 : 0);
  if (config.merge_policy != MergePolicy::kPoisonRound) {
    // Only non-default so every pre-MergePolicy journal (implicitly
    // kPoisonRound) keeps resuming. Retry/watchdog/sink knobs and the fault
    // injector are deliberately excluded: without injection they never
    // change a round's outcome, and WITH injection the journaled outcomes
    // are exactly what the seeded faults produced — replayable by design.
    out << " merge=" << static_cast<int>(config.merge_policy);
  }
  if (config.online.enabled) {
    // Only when enabled, so every round-only journal keeps resuming; every
    // knob that shapes an epoch's outcome is covered. max_epoch_arrivals is
    // excluded — it shapes epoch BOUNDARIES, which the arrival echo check
    // already pins per epoch.
    out << " online=1 budget=" << format_double(config.online.mechanism.budget)  //
        << " online_alpha=" << format_double(config.online.mechanism.alpha)      //
        << " phi=" << format_double(config.online.mechanism.sample_fraction)     //
        << " stages=" << config.online.mechanism.stages                          //
        << " req=" << format_double(config.online.requirement_pos);
  }
  return out.str();
}

CampaignService::CampaignService(const ServiceConfig& config)
    : config_(config), engine_(auction::EngineOptions{.workers = config.workers}) {
  MCS_EXPECTS(config.queue_capacity >= 1, "service queue needs capacity >= 1");
  MCS_EXPECTS(config.retry.max_attempts >= 1, "shard retry needs max_attempts >= 1");
  MCS_EXPECTS(config.retry.initial_backoff_seconds >= 0.0 &&
                  config.retry.max_backoff_seconds >= 0.0,
              "shard retry backoffs must be non-negative");
  MCS_EXPECTS(config.retry.backoff_multiplier >= 1.0,
              "shard retry backoff_multiplier must be >= 1 (backoff never shrinks)");
  MCS_EXPECTS(config.watchdog_seconds >= 0.0, "watchdog_seconds must be non-negative (0 = off)");
  MCS_EXPECTS(config.sink_slow_seconds >= 0.0, "sink_slow_seconds must be non-negative (0 = off)");
  if (config.online.enabled) {
    // Fail at construction, not at the first flush: the same checks
    // run_online_mechanism makes per epoch.
    MCS_EXPECTS(config.online.requirement_pos > 0.0 && config.online.requirement_pos < 1.0,
                "online requirement_pos must be in (0, 1)");
    MCS_EXPECTS(config.online.max_epoch_arrivals >= 1, "online max_epoch_arrivals must be >= 1");
    MCS_EXPECTS(config.online.mechanism.budget > 0.0, "online budget must be positive");
    MCS_EXPECTS(config.online.mechanism.alpha > 0.0, "online alpha must be positive");
    MCS_EXPECTS(config.online.mechanism.sample_fraction > 0.0 &&
                    config.online.mechanism.sample_fraction < 1.0,
                "online sample_fraction must be in (0, 1)");
    MCS_EXPECTS(config.online.mechanism.stages >= 1 && config.online.mechanism.stages <= 32,
                "online stages must be in [1, 32]");
  }
  MCS_EXPECTS(config.shards.shard_count() == 1 ||
                  config.mechanism.multi_task.critical_bid_rule !=
                      auction::CriticalBidRule::kPaperIterationMin,
              "CriticalBidRule::kPaperIterationMin is not shard-decomposable (its minimum "
              "ranges over the GLOBAL without-i iteration sequence); use kBinarySearch or a "
              "single shard");
  if (!config_.journal_path.empty()) {
    ReplayedServiceJournal replayed;
    journal_ = std::make_unique<ServiceJournalWriter>(
        config_.journal_path, service_config_fingerprint(config_), &replayed);
    journal_->set_fault_injector(config_.fault_injector);
    journaled_ = std::move(replayed.records);
    journaled_epochs_ = std::move(replayed.epochs);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

CampaignService::~CampaignService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  dispatcher_.join();
  // Watchdog-abandoned runners finish (or sleep out their injected stalls)
  // here; their outcomes are discarded — the rounds already published as
  // kTimedOut. Joining after the dispatcher keeps abandoned_ single-owner.
  for (auto& runner : abandoned_) {
    runner.join();
  }
}

RoundId CampaignService::submit_round(GeoRound round) {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_space_.wait(lock, [this] { return queue_.size() < config_.queue_capacity; });
  const RoundId id = next_round_++;
  Request request;
  request.round = id;
  request.payload = std::move(round);
  queue_.push_back(std::move(request));
  ++stats_.submitted;
  obs::Registry::global().add(ServiceMetrics::get().submitted, 1);
  obs::Registry::global().add(ServiceMetrics::get().queue_depth, 1);
  lock.unlock();
  queue_ready_.notify_one();
  return id;
}

std::optional<RoundId> CampaignService::try_submit_round(GeoRound round) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.size() >= config_.queue_capacity) {
    return std::nullopt;
  }
  const RoundId id = next_round_++;
  Request request;
  request.round = id;
  request.payload = std::move(round);
  queue_.push_back(std::move(request));
  ++stats_.submitted;
  obs::Registry::global().add(ServiceMetrics::get().submitted, 1);
  obs::Registry::global().add(ServiceMetrics::get().queue_depth, 1);
  lock.unlock();
  queue_ready_.notify_one();
  return id;
}

std::optional<RoundOutcome> CampaignService::poll_outcome(RoundId round) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Fail fast on ids this service can never deliver — waiting on one would
  // otherwise block forever (poll would spin forever), so the id checks are
  // part of the exactly-once contract, not just hygiene. The message names
  // the id and the valid range so the caller's bug is diagnosable.
  MCS_EXPECTS(round < next_round_,
              "poll_outcome: round " + std::to_string(round) +
                  " was never submitted (next round id is " + std::to_string(next_round_) + ")");
  const auto it = completed_.find(round);
  if (it != completed_.end()) {
    RoundOutcome outcome = std::move(it->second);
    completed_.erase(it);
    return outcome;
  }
  MCS_EXPECTS(round >= next_completed_,
              "poll_outcome: round " + std::to_string(round) +
                  "'s outcome was already delivered (outcomes deliver exactly once)");
  return std::nullopt;
}

RoundOutcome CampaignService::wait_outcome(RoundId round) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Checked BEFORE the wait: an id that was never submitted has no round to
  // complete, so waiting on it would block forever.
  MCS_EXPECTS(round < next_round_,
              "wait_outcome: round " + std::to_string(round) +
                  " was never submitted (next round id is " + std::to_string(next_round_) + ")");
  round_done_.wait(lock, [this, round] { return round < next_completed_; });
  const auto it = completed_.find(round);
  MCS_EXPECTS(it != completed_.end(),
              "wait_outcome: round " + std::to_string(round) +
                  "'s outcome was already delivered (outcomes deliver exactly once)");
  RoundOutcome outcome = std::move(it->second);
  completed_.erase(it);
  return outcome;
}

void CampaignService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  round_done_.wait(lock, [this] {
    return next_completed_ == next_round_ && next_epoch_completed_ == next_epoch_;
  });
}

ArrivalTicket CampaignService::submit_arrival(auction::SingleTaskBid bid) {
  std::unique_lock<std::mutex> lock(mutex_);
  MCS_EXPECTS(config_.online.enabled, "submit_arrival: online ingestion is not enabled");
  // The same bid validation ArrivalStream would apply, surfaced at the
  // ingestion edge so a bad arrival cannot poison its whole epoch.
  MCS_EXPECTS(bid.cost > 0.0, "submit_arrival: arrival cost must be positive");
  MCS_EXPECTS(bid.pos >= 0.0 && bid.pos <= 1.0, "submit_arrival: arrival PoS must be in [0, 1]");
  const ArrivalTicket ticket{next_epoch_, open_epoch_.size()};
  open_epoch_.push_back(
      auction::online::Arrival{static_cast<auction::UserId>(open_epoch_.size()), bid});
  ++stats_.arrivals_submitted;
  obs::Registry::global().add(ServiceMetrics::get().arrivals, 1);
  if (open_epoch_.size() >= config_.online.max_epoch_arrivals) {
    flush_epoch_locked(lock);  // bounded memory under a firehose
  }
  return ticket;
}

std::optional<EpochId> CampaignService::flush_epoch() {
  std::unique_lock<std::mutex> lock(mutex_);
  MCS_EXPECTS(config_.online.enabled, "flush_epoch: online ingestion is not enabled");
  return flush_epoch_locked(lock);
}

std::optional<EpochId> CampaignService::flush_epoch_locked(std::unique_lock<std::mutex>& lock) {
  if (open_epoch_.empty()) {
    return std::nullopt;
  }
  queue_space_.wait(lock, [this] { return queue_.size() < config_.queue_capacity; });
  if (open_epoch_.empty()) {
    return std::nullopt;  // a concurrent flush sealed it while we waited
  }
  Request request;
  request.is_epoch = true;
  request.epoch = next_epoch_++;
  request.arrivals = std::move(open_epoch_);
  open_epoch_.clear();
  const EpochId id = request.epoch;
  queue_.push_back(std::move(request));
  ++stats_.epochs_flushed;
  obs::Registry::global().add(ServiceMetrics::get().queue_depth, 1);
  lock.unlock();
  queue_ready_.notify_one();
  return id;
}

std::optional<EpochOutcome> CampaignService::poll_epoch(EpochId epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  MCS_EXPECTS(epoch < next_epoch_,
              "poll_epoch: epoch " + std::to_string(epoch) +
                  " was never flushed (next epoch id is " + std::to_string(next_epoch_) + ")");
  const auto it = completed_epochs_.find(epoch);
  if (it != completed_epochs_.end()) {
    EpochOutcome outcome = std::move(it->second);
    completed_epochs_.erase(it);
    return outcome;
  }
  MCS_EXPECTS(epoch >= next_epoch_completed_,
              "poll_epoch: epoch " + std::to_string(epoch) +
                  "'s outcome was already delivered (outcomes deliver exactly once)");
  return std::nullopt;
}

EpochOutcome CampaignService::wait_epoch(EpochId epoch) {
  std::unique_lock<std::mutex> lock(mutex_);
  MCS_EXPECTS(epoch < next_epoch_,
              "wait_epoch: epoch " + std::to_string(epoch) +
                  " was never flushed (next epoch id is " + std::to_string(next_epoch_) + ")");
  round_done_.wait(lock, [this, epoch] { return epoch < next_epoch_completed_; });
  const auto it = completed_epochs_.find(epoch);
  MCS_EXPECTS(it != completed_epochs_.end(),
              "wait_epoch: epoch " + std::to_string(epoch) +
                  "'s outcome was already delivered (outcomes deliver exactly once)");
  EpochOutcome outcome = std::move(it->second);
  completed_epochs_.erase(it);
  return outcome;
}

std::size_t CampaignService::stream_telemetry(TelemetrySink sink) {
  MCS_EXPECTS(sink != nullptr, "stream_telemetry needs a callable sink");
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  const std::size_t id = next_subscription_++;
  sinks_.push_back(Subscription{id, std::move(sink), 0, false});
  return id;
}

void CampaignService::unsubscribe(std::size_t subscription) {
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  for (std::size_t k = 0; k < sinks_.size(); ++k) {
    if (sinks_[k].id == subscription) {
      sinks_.erase(sinks_.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
  throw common::PreconditionError("unsubscribe: unknown telemetry subscription");
}

ServiceStats CampaignService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void CampaignService::dispatcher_loop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and every submitted round has been served
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      obs::Registry::global().add(ServiceMetrics::get().queue_depth, -1);
    }
    queue_space_.notify_one();

    if (request.is_epoch) {
      // Epochs compute inline on the dispatcher: the online mechanism is a
      // single O(n log n) pass, so the watchdog/retry ladder that guards
      // round computation would be pure overhead here.
      EpochOutcome out = compute_epoch(request);
      journal_epoch(out, request.arrivals, out.journal_error);
      publish_epoch(std::move(out));
      continue;
    }

    // The round's journaled shape must be captured before run_guarded takes
    // ownership of the request (the watchdog path moves it into the runner).
    const RoundId round = request.round;
    const std::size_t users = request.payload.instance.num_users();
    const std::size_t tasks = request.payload.instance.num_tasks();

    RoundOutcome out;
    try {
      // A dropped handoff still publishes: the round fails LOUDLY — every
      // submitted id stays pollable exactly once, never silently lost.
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kQueueHandoff, round,
                          0);
      out = run_guarded(std::move(request));
    } catch (const std::exception& e) {
      out = RoundOutcome{};
      out.round = round;
      out.status = auction::AuctionStatus::kFailed;
      out.error = e.what();
    }

    journal_round(out, users, tasks, out.journal_error);
    publish(std::move(out));
  }
}

RoundOutcome CampaignService::run_guarded(Request request) {
  // Journal-replayed rounds are instant and never wedge; the watchdog only
  // guards computed rounds.
  if (config_.watchdog_seconds <= 0.0 || request.round < journaled_.size()) {
    return compute(request);
  }

  struct GuardedRun {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Request request;
    RoundOutcome outcome;
  };
  auto run = std::make_shared<GuardedRun>();
  const RoundId round = request.round;
  run->request = std::move(request);

  // One thread per guarded round, not a second pool: the runner only
  // orchestrates (the engine's pool still does the work), and a wedged
  // runner must be abandonable without poisoning any reusable worker.
  std::thread runner([this, run] {
    RoundOutcome outcome;
    try {
      outcome = compute(run->request);
    } catch (const std::exception& e) {
      outcome.round = run->request.round;
      outcome.status = auction::AuctionStatus::kFailed;
      outcome.error = e.what();
    }
    std::lock_guard<std::mutex> lock(run->m);
    run->outcome = std::move(outcome);
    run->done = true;
    run->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(run->m);
  const bool finished =
      run->cv.wait_for(lock, std::chrono::duration<double>(config_.watchdog_seconds),
                       [&run] { return run->done; });
  lock.unlock();
  if (finished) {
    runner.join();
    return std::move(run->outcome);
  }

  // Watchdog fires: abandon the runner (it keeps the shared GuardedRun state
  // alive and is joined at destruction) and synthesize the round's outcome.
  // The escalation ladder's last rung — cooperative deadlines and retries
  // both failed to bring the round home in time.
  abandoned_.push_back(std::move(runner));
  {
    std::lock_guard<std::mutex> stats_lock(mutex_);
    ++stats_.watchdog_fires;
  }
  obs::Registry::global().add(ServiceMetrics::get().watchdog_fires, 1);

  RoundOutcome out;
  out.round = round;
  out.status = auction::AuctionStatus::kTimedOut;
  out.error = "watchdog: round still running after " +
              format_double(config_.watchdog_seconds) + "s; runner abandoned";
  out.latency_seconds = config_.watchdog_seconds;
  return out;
}

RoundOutcome CampaignService::compute(const Request& request) {
  RoundOutcome out;
  out.round = request.round;

  // Durability: a round already settled in the journal is served from disk,
  // bit-identically, without recomputation — unless the resubmitted round's
  // shape diverges from what was journaled, which means the caller is not
  // replaying the same campaign.
  if (request.round < journaled_.size()) {
    try {
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kJournalReplay,
                          request.round, 0);
    } catch (const std::exception& e) {
      // A replay that cannot be read fails the round rather than silently
      // recomputing it — the journaled outcome is the settled truth.
      out.status = auction::AuctionStatus::kFailed;
      out.error = e.what();
      return out;
    }
    const auto& record = journaled_[static_cast<std::size_t>(request.round)];
    if (record.users != request.payload.instance.num_users() ||
        record.tasks != request.payload.instance.num_tasks()) {
      out.status = auction::AuctionStatus::kFailed;
      out.error = "journal replay mismatch: round " + std::to_string(request.round) +
                  " was journaled with " + std::to_string(record.users) + " users / " +
                  std::to_string(record.tasks) + " tasks but resubmitted with " +
                  std::to_string(request.payload.instance.num_users()) + " / " +
                  std::to_string(request.payload.instance.num_tasks());
      return out;
    }
    out.status = record.status;
    out.outcome = record.outcome;
    out.error = record.error;
    out.shards_run = record.shards_run;
    out.straddlers = record.straddlers;
    out.replayed_from_journal = true;
    return out;
  }

  const auto start = std::chrono::steady_clock::now();
  // Retry backoffs never sleep past the watchdog: a retry that cannot start
  // before the round is abandoned is pure waste.
  const auto deadline = common::Deadline::from_budget(config_.watchdog_seconds);
  try {
    // The round's slots: one CSR view per shard slice, or the whole AoS
    // instance for the pass-through and for a round where no shard owns a
    // task (zero tasks), so the outcome is whatever the mechanism says.
    const bool partitioned = config_.shards.shard_count() > 1;
    RoundPartition partition;
    if (partitioned) {
      partition = partition_views(request.payload, config_.shards, engine_.pool());
      out.straddlers = partition.straddlers.size();
    }
    const std::size_t slot_count = std::max<std::size_t>(partition.shards.size(), 1);
    auto slots = run_slots(
        slot_count,
        [&](std::size_t slot) {
          return partition.shards.empty()
                     ? engine_.run_one_isolated(request.payload.instance, config_.mechanism)
                     : engine_.run_one_isolated(partition.shards[slot].view, config_.mechanism);
        },
        request.round, deadline, out.shard_retries);
    auto merged = partition.shards.empty()
                      ? std::move(slots.front())
                      : merge_outcomes(request.payload.instance, partition, slots,
                                       config_.mechanism.multi_task.partial_coverage,
                                       config_.merge_policy);
    out.status = merged.status;
    out.outcome = std::move(merged.outcome);
    out.error = std::move(merged.error);
    out.shards_run = partitioned ? partition.shards.size() : 1;
  } catch (const std::exception& e) {
    // Partitioning rejected the round (task_cells misaligned with the
    // instance, or a malformed bid) — poison this round only, like the
    // engine's isolated path.
    out.status = auction::AuctionStatus::kFailed;
    out.outcome = auction::MechanismOutcome{};
    out.error = e.what();
  }
  out.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

std::vector<auction::AuctionOutcome> CampaignService::run_slots(
    std::size_t count, const std::function<auction::AuctionOutcome(std::size_t)>& run_slot,
    RoundId round, const common::Deadline& deadline, std::size_t& retries) const {
  std::vector<auction::AuctionOutcome> slots(count);
  std::vector<std::size_t> pending(count);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  double backoff = config_.retry.initial_backoff_seconds;
  for (std::size_t attempt = 0;; ++attempt) {
    // One pass over the pending slots with the engine batch's scheduling: a
    // lone slot runs inline on this thread (its critical bids still fan out
    // on the pool), several run one per pool worker.
    engine_.pool().for_each_index(
        pending.size(),
        [&](std::size_t k) {
          const std::size_t slot = pending[k];
          try {
            common::fault_point(config_.fault_injector.get(), common::FailPoint::kShardRun, round,
                                attempt * count + slot);
            slots[slot] = run_slot(slot);
          } catch (const std::exception& e) {
            // An injected shard failure lands exactly where a real one would:
            // a dead slot for the merge policy to rule on.
            slots[slot] = auction::AuctionOutcome{};
            slots[slot].status = auction::AuctionStatus::kFailed;
            slots[slot].error = e.what();
          }
        },
        engine_.worker_count());
    std::erase_if(pending, [&](std::size_t slot) { return !slot_dead(slots[slot]); });
    if (pending.empty() || attempt + 1 >= config_.retry.max_attempts) {
      return slots;
    }
    const double remaining = deadline.remaining_seconds();
    if (remaining <= 0.0) {
      return slots;  // the watchdog is about to fire; don't burn its budget
    }
    const double sleep_seconds =
        std::isfinite(remaining) ? std::min(backoff, remaining) : backoff;
    if (sleep_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
    }
    backoff = std::min(backoff * config_.retry.backoff_multiplier,
                       config_.retry.max_backoff_seconds);
    retries += pending.size();
  }
}

EpochOutcome CampaignService::compute_epoch(const Request& request) {
  EpochOutcome out;
  out.epoch = request.epoch;

  // Durability mirrors rounds: a journaled epoch is served from disk,
  // bit-identically, unless the re-fed arrivals diverge from what was
  // journaled (%.17g round-trips, so exact equality is the right test).
  if (request.epoch < journaled_epochs_.size()) {
    const auto& record = journaled_epochs_[static_cast<std::size_t>(request.epoch)];
    bool matches = record.arrivals.size() == request.arrivals.size();
    for (std::size_t k = 0; matches && k < record.arrivals.size(); ++k) {
      matches = record.arrivals[k].user == request.arrivals[k].user &&
                record.arrivals[k].bid.cost == request.arrivals[k].bid.cost &&
                record.arrivals[k].bid.pos == request.arrivals[k].bid.pos;
    }
    if (!matches) {
      out.status = auction::AuctionStatus::kFailed;
      out.error = "journal replay mismatch: epoch " + std::to_string(request.epoch) +
                  " was journaled with " + std::to_string(record.arrivals.size()) +
                  " arrivals that do not match the " + std::to_string(request.arrivals.size()) +
                  " re-fed ones";
      return out;
    }
    out.status = record.status;
    out.outcome = record.outcome;
    out.error = record.error;
    out.replayed_from_journal = true;
    return out;
  }

  const auto start = std::chrono::steady_clock::now();
  try {
    const auction::online::ArrivalStream stream(config_.online.requirement_pos,
                                                request.arrivals);
    out.outcome = auction::online::run_online_mechanism(stream, config_.online.mechanism);
  } catch (const std::exception& e) {
    // A rejected epoch poisons itself only, like a failed round.
    out.status = auction::AuctionStatus::kFailed;
    out.outcome = auction::online::OnlineOutcome{};
    out.error = e.what();
  }
  out.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

void CampaignService::journal_epoch(const EpochOutcome& outcome,
                                    const std::vector<auction::online::Arrival>& arrivals,
                                    std::string& journal_error) {
  if (!journal_ || outcome.replayed_from_journal) {
    return;
  }
  // A failed replay (arrival mismatch) is NOT replayed_from_journal, but its
  // block already exists on disk — appending again would duplicate the id
  // and break the journal's contiguous-from-0 invariant on the next load.
  if (outcome.epoch < journaled_epochs_.size()) {
    return;
  }
  if (!journal_healthy_) {
    journal_error = "journal quarantined by an earlier append failure; epoch not journaled";
    return;
  }
  ServiceEpochRecord record;
  record.epoch = outcome.epoch;
  record.status = outcome.status;
  record.arrivals = arrivals;
  record.outcome = outcome.outcome;
  record.error = outcome.error;
  try {
    journal_->append(record);
  } catch (const std::exception& e) {
    // Same quarantine as rounds: epochs and rounds share the file, so one
    // failed append stops BOTH sequences from appending (each would
    // otherwise grow a gap).
    journal_healthy_ = false;
    journal_error = std::string("journal append failed: ") + e.what();
  }
}

void CampaignService::publish_epoch(EpochOutcome outcome) {
  obs::Registry::global().add(ServiceMetrics::get().online_accepts,
                              static_cast<std::int64_t>(outcome.outcome.accepted));
  obs::Registry::global().add(ServiceMetrics::get().online_threshold_updates,
                              static_cast<std::int64_t>(outcome.outcome.threshold_updates));
  // Gauge (additive deltas, dispatcher-thread only): the last settled
  // epoch's unspent worst-case budget, in milli-units so the integer
  // registry keeps three decimals.
  const auto remaining_milli = static_cast<std::int64_t>(
      (config_.online.mechanism.budget - outcome.outcome.worst_case_payout) * 1000.0);
  obs::Registry::global().add(ServiceMetrics::get().online_budget_remaining,
                              remaining_milli - last_budget_remaining_milli_);
  last_budget_remaining_milli_ = remaining_milli;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCS_ENSURES(outcome.epoch == next_epoch_completed_, "epochs must complete in flush order");
    ++stats_.epochs_completed;
    if (!outcome.journal_error.empty()) {
      ++stats_.journal_append_failures;
    }
    if (outcome.replayed_from_journal) {
      ++stats_.epochs_replayed;
    }
    if (!outcome.ok()) {
      ++stats_.epochs_failed;
    }
    completed_epochs_.emplace(outcome.epoch, std::move(outcome));
    ++next_epoch_completed_;
    obs::Registry::global().add(ServiceMetrics::get().epochs_completed, 1);
  }
  round_done_.notify_all();
}

void CampaignService::journal_round(const RoundOutcome& outcome, std::size_t users,
                                    std::size_t tasks, std::string& journal_error) {
  if (!journal_ || outcome.replayed_from_journal) {
    return;
  }
  // A replay-mismatch failure carries an id whose block is already on disk;
  // appending it again would duplicate the id and break the journal's
  // contiguous-from-0 invariant on the next load.
  if (outcome.round < journaled_.size()) {
    return;
  }
  if (!journal_healthy_) {
    // Quarantined by an earlier failed append: the skipped block keeps the
    // on-disk prefix contiguous, and the lost durability stays visible on
    // every affected round.
    journal_error = "journal quarantined by an earlier append failure; round not journaled";
    return;
  }
  ServiceJournalRecord record;
  record.round = outcome.round;
  record.status = outcome.status;
  record.users = users;
  record.tasks = tasks;
  record.shards_run = outcome.shards_run;
  record.straddlers = outcome.straddlers;
  record.outcome = outcome.outcome;
  record.error = outcome.error;
  try {
    journal_->append(record);
  } catch (const std::exception& e) {
    // One failed append quarantines journaling for this lifetime: a skipped
    // block would break the journal's contiguous-from-0 invariant and brick
    // every later replay. The file keeps its valid prefix; the round's
    // outcome stands, just not durably.
    journal_healthy_ = false;
    journal_error = std::string("journal append failed: ") + e.what();
  }
}

void CampaignService::publish(RoundOutcome outcome) {
  RoundTelemetry telemetry;
  telemetry.round = outcome.round;
  telemetry.status = outcome.status;
  telemetry.shards_run = outcome.shards_run;
  telemetry.straddlers = outcome.straddlers;
  telemetry.shard_retries = outcome.shard_retries;
  telemetry.latency_seconds = outcome.latency_seconds;
  telemetry.replayed_from_journal = outcome.replayed_from_journal;
  telemetry.mechanism = outcome.outcome.telemetry;

  // Sinks run BEFORE the outcome becomes pollable, so a caller returning
  // from wait_outcome/drain knows every sink already saw the round — anyone
  // tearing down sink state after a drain cannot race a late delivery. They
  // run outside mutex_ so a slow dashboard cannot stall poll/submit;
  // copying the list keeps unsubscribe-during-delivery safe (the documented
  // caveat: an in-flight call to a just-removed sink may still finish).
  // Quarantined sinks are skipped entirely.
  struct SinkCall {
    std::size_t id = 0;
    TelemetrySink sink;
  };
  std::vector<SinkCall> calls;
  {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    for (const auto& sub : sinks_) {
      if (!sub.quarantined) {
        calls.push_back(SinkCall{sub.id, sub.sink});
      }
    }
  }
  // Each delivery is wrapped: a throwing (or, with sink_slow_seconds, a
  // slow) sink records an error on the round instead of propagating out of
  // the dispatcher thread, and its failure streak feeds the quarantine. The
  // kSinkDispatch hit index is the sink's ordinal in this round's delivery
  // list, so a schedule can target "round r, second sink".
  struct SinkResult {
    std::size_t id = 0;
    bool failed = false;
  };
  std::vector<SinkResult> results;
  results.reserve(calls.size());
  for (std::size_t ordinal = 0; ordinal < calls.size(); ++ordinal) {
    std::string error;
    const auto begin = std::chrono::steady_clock::now();
    try {
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kSinkDispatch,
                          outcome.round, ordinal);
      calls[ordinal].sink(telemetry);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (error.empty() && config_.sink_slow_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
      if (elapsed > config_.sink_slow_seconds) {
        error = "sink exceeded " + format_double(config_.sink_slow_seconds) + "s time budget";
      }
    }
    if (!error.empty()) {
      outcome.sink_errors.push_back("telemetry sink " + std::to_string(calls[ordinal].id) +
                                    ": " + error);
    }
    results.push_back(SinkResult{calls[ordinal].id, !error.empty()});
  }

  // Streaks write back by id under the lock — a sink unsubscribed (or
  // replaced) mid-delivery is simply skipped.
  std::uint64_t sink_failures = 0;
  std::uint64_t newly_quarantined = 0;
  if (!results.empty()) {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    for (const auto& result : results) {
      const auto it = std::find_if(sinks_.begin(), sinks_.end(),
                                   [&result](const Subscription& s) { return s.id == result.id; });
      if (it == sinks_.end()) {
        continue;
      }
      if (!result.failed) {
        it->consecutive_failures = 0;
        continue;
      }
      ++sink_failures;
      ++it->consecutive_failures;
      if (config_.sink_quarantine_failures > 0 && !it->quarantined &&
          it->consecutive_failures >= config_.sink_quarantine_failures) {
        it->quarantined = true;
        ++newly_quarantined;
      }
    }
  }
  if (newly_quarantined > 0) {
    obs::Registry::global().add(ServiceMetrics::get().sinks_quarantined,
                                static_cast<std::int64_t>(newly_quarantined));
  }
  if (outcome.shard_retries > 0) {
    obs::Registry::global().add(ServiceMetrics::get().shard_retries,
                                static_cast<std::int64_t>(outcome.shard_retries));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCS_ENSURES(outcome.round == next_completed_, "rounds must complete in submission order");
    ++stats_.completed;
    stats_.shard_retries += outcome.shard_retries;
    stats_.sink_failures += sink_failures;
    stats_.sinks_quarantined += newly_quarantined;
    if (!outcome.journal_error.empty()) {
      ++stats_.journal_append_failures;
    }
    if (outcome.replayed_from_journal) {
      ++stats_.replayed;
      obs::Registry::global().add(ServiceMetrics::get().replayed, 1);
    }
    if (outcome.status == auction::AuctionStatus::kDegraded) {
      ++stats_.degraded;
      obs::Registry::global().add(ServiceMetrics::get().rounds_degraded, 1);
    } else if (!outcome.ok()) {
      ++stats_.failed;
    }
    completed_.emplace(outcome.round, std::move(outcome));
    ++next_completed_;
    obs::Registry::global().add(ServiceMetrics::get().completed, 1);
  }
  round_done_.notify_all();
}

}  // namespace mcs::service
