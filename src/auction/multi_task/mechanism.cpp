#include "auction/multi_task/mechanism.hpp"

#include "auction/multi_task/greedy.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

namespace {

/// The mechanism over a built view. The deadline and the
/// winner-determination timer start with the caller, so the instance entry
/// point keeps timing its view build.
MechanismOutcome run_on_view(const MultiTaskView& view, const auction::MechanismConfig& config,
                             const common::Deadline& deadline, const obs::PhaseTimer& wd_timer) {
  const bool telemetry = obs::enabled();
  MechanismOutcome outcome;
  outcome.telemetry.enabled = telemetry;
  // One CSR view and one recorded main run serve winner determination AND
  // every critical bid: each winner's without-i run resumes from the main
  // run at her round, and her probes layer overlays on the view.
  const auto main = record_greedy(
      view, GreedyOptions{.deadline = deadline,
                          .keep_partial = config.multi_task.partial_coverage,
                          .counters = telemetry ? &outcome.telemetry.winner_determination
                                                : nullptr});
  const GreedyResult& greedy = main.result;
  if (telemetry) {
    outcome.telemetry.winner_determination_seconds = wd_timer.seconds();
  }
  outcome.allocation = greedy.allocation;
  if (!outcome.allocation.feasible) {
    // Partial coverage (when enabled): report what WAS covered — the winner
    // prefix and the uncovered task set — but pay no rewards; a partial
    // cover has no critical bids, so any payment rule would be gameable.
    outcome.uncovered_tasks = greedy.uncovered_tasks;
    outcome.degraded = !outcome.allocation.winners.empty() || greedy.timed_out;
    if (telemetry && outcome.degraded) {
      outcome.telemetry.degraded_events = 1;
    }
    return outcome;
  }
  const RewardOptions reward_options{.alpha = config.alpha,
                                     .rule = config.multi_task.critical_bid_rule,
                                     .deadline = deadline};
  // Per-winner critical bids are independent; fan them out across the shared
  // pool (parallel_map assembles results in submission order, bit-identical
  // to the serial loop). Each probe polls the same deadline token.
  const auto& winners = outcome.allocation.winners;
  const obs::PhaseTimer reward_timer(telemetry);
  if (telemetry) {
    // One counter block per winner, merged in index order afterwards, so the
    // totals are deterministic regardless of how parallel_map schedules.
    std::vector<obs::PhaseCounters> per_winner(winners.size());
    outcome.rewards = common::parallel_map<WinnerReward>(
        winners.size(),
        [&](std::size_t index) {
          RewardOptions slot_options = reward_options;
          slot_options.counters = &per_winner[index];
          return compute_reward(view, main, winners[index], slot_options);
        },
        config.reward_worker_budget());
    for (const obs::PhaseCounters& block : per_winner) {
      outcome.telemetry.rewards += block;
    }
    outcome.telemetry.rewards_seconds = reward_timer.seconds();
  } else {
    outcome.rewards = common::parallel_map<WinnerReward>(
        winners.size(),
        [&](std::size_t index) {
          return compute_reward(view, main, winners[index], reward_options);
        },
        config.reward_worker_budget());
  }
  return outcome;
}

}  // namespace

MechanismOutcome run_mechanism(const MultiTaskView& view, const auction::MechanismConfig& config) {
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  const obs::PhaseTimer wd_timer(obs::enabled());
  return run_on_view(view, config, common::Deadline::from_budget(config.time_budget_seconds),
                     wd_timer);
}

MechanismOutcome run_mechanism(const MultiTaskInstance& instance,
                               const auction::MechanismConfig& config) {
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  const auto deadline = common::Deadline::from_budget(config.time_budget_seconds);
  const obs::PhaseTimer wd_timer(obs::enabled());
  return run_on_view(MultiTaskView::from_instance(instance), config, deadline, wd_timer);
}

}  // namespace mcs::auction::multi_task
