#include "auction/engine.hpp"

#include <exception>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction {

namespace {

// Engine-level registry metrics: batch shape plus the per-slot status mix —
// the first signals an operator watches ("how much degraded/timed-out
// traffic are we serving?"). Shared across Engine instances.
struct EngineMetrics {
  obs::Registry::MetricId batches;
  obs::Registry::MetricId auctions;
  obs::Registry::MetricId slots_ok;
  obs::Registry::MetricId slots_degraded;
  obs::Registry::MetricId slots_timed_out;
  obs::Registry::MetricId slots_failed;

  static const EngineMetrics& get() {
    static const EngineMetrics metrics{
        obs::Registry::global().metric("engine.batches"),
        obs::Registry::global().metric("engine.auctions"),
        obs::Registry::global().metric("engine.slots_ok"),
        obs::Registry::global().metric("engine.slots_degraded"),
        obs::Registry::global().metric("engine.slots_timed_out"),
        obs::Registry::global().metric("engine.slots_failed"),
    };
    return metrics;
  }
};

void record_batch(std::size_t size) {
  if (!obs::enabled()) {
    return;
  }
  const EngineMetrics& metrics = EngineMetrics::get();
  obs::Registry::global().add(metrics.batches, 1);
  obs::Registry::global().add(metrics.auctions, static_cast<std::int64_t>(size));
}

void record_status(AuctionStatus status) {
  if (!obs::enabled()) {
    return;
  }
  const EngineMetrics& metrics = EngineMetrics::get();
  switch (status) {
    case AuctionStatus::kOk:
      obs::Registry::global().add(metrics.slots_ok, 1);
      break;
    case AuctionStatus::kDegraded:
      obs::Registry::global().add(metrics.slots_degraded, 1);
      break;
    case AuctionStatus::kTimedOut:
      obs::Registry::global().add(metrics.slots_timed_out, 1);
      break;
    case AuctionStatus::kFailed:
      obs::Registry::global().add(metrics.slots_failed, 1);
      break;
  }
}

MechanismOutcome dispatch(const SingleTaskInstance& instance, const MechanismConfig& config) {
  return single_task::run_mechanism(instance, config);
}

MechanismOutcome dispatch(const MultiTaskInstance& instance, const MechanismConfig& config) {
  return multi_task::run_mechanism(instance, config);
}

MechanismOutcome dispatch(const multi_task::MultiTaskView& view, const MechanismConfig& config) {
  return multi_task::run_mechanism(view, config);
}

MechanismOutcome dispatch(const AuctionInstance& instance, const MechanismConfig& config) {
  return std::visit([&](const auto& typed) { return dispatch(typed, config); }, instance);
}

/// Runs one auction and folds any per-auction failure into the slot. The
/// happy path stores the strict outcome unchanged, so isolation costs
/// healthy auctions nothing but the status bookkeeping.
template <typename Item>
AuctionOutcome dispatch_isolated(const Item& instance, const MechanismConfig& config) {
  AuctionOutcome slot;
  try {
    slot.outcome = dispatch(instance, config);
    slot.status = slot.outcome.degraded ? AuctionStatus::kDegraded : AuctionStatus::kOk;
  } catch (const common::DeadlineExceeded& e) {
    slot.status = AuctionStatus::kTimedOut;
    slot.outcome = MechanismOutcome{};
    slot.error = e.what();
  } catch (const std::exception& e) {
    slot.status = AuctionStatus::kFailed;
    slot.outcome = MechanismOutcome{};
    slot.error = e.what();
  }
  record_status(slot.status);
  return slot;
}

}  // namespace

const char* to_string(AuctionStatus status) {
  switch (status) {
    case AuctionStatus::kOk:
      return "ok";
    case AuctionStatus::kDegraded:
      return "degraded";
    case AuctionStatus::kTimedOut:
      return "timed-out";
    case AuctionStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

Engine::Engine(const EngineOptions& options)
    : owned_(options.workers > 0 ? std::make_unique<common::ThreadPool>(options.workers)
                                 : nullptr) {}

common::ThreadPool& Engine::pool() const {
  return owned_ ? *owned_ : common::ThreadPool::shared();
}

std::size_t Engine::worker_count() const { return pool().worker_count(); }

MechanismConfig Engine::effective_config(const MechanismConfig& config) const {
  MechanismConfig adjusted = config;
  if (owned_ && adjusted.reward_workers == 0) {
    adjusted.reward_workers = owned_->worker_count();
  }
  return adjusted;
}

template <typename Item>
std::vector<MechanismOutcome> Engine::run_batch(const std::vector<Item>& batch,
                                                const MechanismConfig& config) const {
  const MechanismConfig adjusted = effective_config(config);
  record_batch(batch.size());
  std::vector<MechanismOutcome> outcomes(batch.size());
  // Inter-auction parallelism: one strided chunk per worker. Inside a pool
  // worker any nested parallel_map degrades to serial, so each auction runs
  // the exact serial code path; a lone auction runs inline on the calling
  // thread, where the critical-bid parallel_map still fans out.
  pool().for_each_index(
      batch.size(),
      [&](std::size_t index) { outcomes[index] = dispatch(batch[index], adjusted); },
      pool().worker_count());
  return outcomes;
}

std::vector<MechanismOutcome> Engine::run(const std::vector<AuctionInstance>& batch,
                                          const MechanismConfig& config) const {
  return run_batch(batch, config);
}

std::vector<MechanismOutcome> Engine::run(const std::vector<SingleTaskInstance>& batch,
                                          const MechanismConfig& config) const {
  return run_batch(batch, config);
}

std::vector<MechanismOutcome> Engine::run(const std::vector<MultiTaskInstance>& batch,
                                          const MechanismConfig& config) const {
  return run_batch(batch, config);
}

template <typename Item>
std::vector<AuctionOutcome> Engine::run_batch_isolated(const std::vector<Item>& batch,
                                                       const MechanismConfig& config) const {
  const MechanismConfig adjusted = effective_config(config);
  record_batch(batch.size());
  std::vector<AuctionOutcome> slots(batch.size());
  // Same scheduling as run_batch; dispatch_isolated swallows per-slot
  // exceptions before they can reach for_each_index's rethrow machinery, so
  // sibling auctions always complete.
  pool().for_each_index(
      batch.size(),
      [&](std::size_t index) { slots[index] = dispatch_isolated(batch[index], adjusted); },
      pool().worker_count());
  return slots;
}

std::vector<AuctionOutcome> Engine::run_isolated(const std::vector<AuctionInstance>& batch,
                                                 const MechanismConfig& config) const {
  return run_batch_isolated(batch, config);
}

std::vector<AuctionOutcome> Engine::run_isolated(const std::vector<SingleTaskInstance>& batch,
                                                 const MechanismConfig& config) const {
  return run_batch_isolated(batch, config);
}

std::vector<AuctionOutcome> Engine::run_isolated(const std::vector<MultiTaskInstance>& batch,
                                                 const MechanismConfig& config) const {
  return run_batch_isolated(batch, config);
}

MechanismOutcome Engine::run_one(const SingleTaskInstance& instance,
                                 const MechanismConfig& config) const {
  record_batch(1);
  return dispatch(instance, effective_config(config));
}

MechanismOutcome Engine::run_one(const MultiTaskInstance& instance,
                                 const MechanismConfig& config) const {
  record_batch(1);
  return dispatch(instance, effective_config(config));
}

MechanismOutcome Engine::run_one(const AuctionInstance& instance,
                                 const MechanismConfig& config) const {
  record_batch(1);
  return dispatch(instance, effective_config(config));
}

AuctionOutcome Engine::run_one_isolated(const SingleTaskInstance& instance,
                                        const MechanismConfig& config) const {
  record_batch(1);
  return dispatch_isolated(instance, effective_config(config));
}

AuctionOutcome Engine::run_one_isolated(const MultiTaskInstance& instance,
                                        const MechanismConfig& config) const {
  record_batch(1);
  return dispatch_isolated(instance, effective_config(config));
}

AuctionOutcome Engine::run_one_isolated(const AuctionInstance& instance,
                                        const MechanismConfig& config) const {
  record_batch(1);
  return dispatch_isolated(instance, effective_config(config));
}

AuctionOutcome Engine::run_one_isolated(const multi_task::MultiTaskView& view,
                                        const MechanismConfig& config) const {
  record_batch(1);
  return dispatch_isolated(view, effective_config(config));
}

}  // namespace mcs::auction
