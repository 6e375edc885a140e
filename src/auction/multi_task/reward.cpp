#include "auction/multi_task/reward.hpp"

#include <algorithm>
#include <limits>

#include "auction/multi_task/gain.hpp"
#include "auction/multi_task/greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::multi_task {

namespace {

GreedyOptions probe_options(const RewardOptions& options) {
  if (options.counters != nullptr) {
    // Every probe_options() consumer is about to issue one greedy re-run.
    ++options.counters->probes;
  }
  return GreedyOptions{.deadline = options.deadline, .counters = options.counters};
}

/// A recorded-run replay is a probe too — counted at the call sites because
/// replay_wins itself stays allocation- and options-free.
void count_replay_probe(const RewardOptions& options) {
  if (options.counters != nullptr) {
    ++options.counters->probes;
  }
}

/// Whether user i would enter the greedy cover when declaring
/// `declared_total`, answered by REPLAYING the recorded without-i run
/// instead of re-solving. The with-i greedy run picks exactly the without-i
/// run's users (same residual trajectory) until the first round where i tops
/// the argmax, so i wins iff some recorded round's winner is beaten by i's
/// ratio at that round's residuals — strict ratio comparison, lowest-id
/// tie-break, the reference scan's rule verbatim. All doubles involved are
/// the ones a full re-solve would compute, so the answer is bit-identical;
/// the cost is O(rounds · |S_i|) per probe instead of a full re-solve.
/// Precondition: `without` is a feasible run recorded with
/// GreedyOptions::record_residuals (i's pivotality was already ruled out) —
/// feasibility with i present at any declaration follows, since the other
/// users alone cover the requirements.
bool replay_wins(const MultiTaskView& view, const GreedyResult& without, UserId user,
                 double declared_total) {
  const auto overlay = ViewOverlay::with_declared_total_contribution(view, user, declared_total);
  const auto tasks = view.user_tasks(user);
  const auto contributions = overlay.contributions_of(view, user);
  const double cost = view.costs[static_cast<std::size_t>(user)];
  for (const auto& step : without.steps) {
    const double effective = effective_contribution(tasks, contributions, step.residual_before);
    if (effective <= 0.0) {
      // Residuals only shrink along the run, so a vanished gain never
      // recovers: i can no longer be selected in any later round.
      break;
    }
    const double ratio = effective / cost;
    if (ratio > step.ratio || (ratio == step.ratio && user < step.selected)) {
      return true;
    }
  }
  return false;
}

/// The paper's Algorithm 5: minimum over the without-i iterations of the
/// contribution needed to beat that iteration's winner ratio.
double iteration_min_critical(const MultiTaskView& view, UserId winner,
                              const RewardOptions& options) {
  const double cost_i = view.costs[static_cast<std::size_t>(winner)];
  const auto without = solve_greedy(view, ViewOverlay::without(winner), probe_options(options));
  if (!without.allocation.feasible) {
    // Winner is pivotal: with any positive declaration the greedy loop must
    // eventually select her, so her critical contribution vanishes.
    return 0.0;
  }
  // Masked runs keep original ids, so no reduced-id translation is needed.
  double critical = std::numeric_limits<double>::infinity();
  for (const auto& step : without.steps) {
    const double cost_k = view.costs[static_cast<std::size_t>(step.selected)];
    // Σ_j min{Q̄_j, q_k^j} is recorded as the step's effective contribution;
    // beating user k's ratio requires contribution >= c_i/c_k times it.
    critical = std::min(critical, (cost_i / cost_k) * step.effective_contribution);
  }
  MCS_ENSURES(critical < std::numeric_limits<double>::infinity(),
              "a feasible without-i run must have at least one iteration");
  return critical;
}

/// Myerson-style rule: binary search for the smallest total declared
/// contribution (along the winner's own task-PoS direction) that still wins.
double binary_search_critical(const MultiTaskView& view, UserId winner,
                              const RewardOptions& options) {
  // ONE recorded without-i solve powers every bisection probe below via
  // replay_wins — the reward phase's dominant cost drops from ~50 full
  // re-solves per winner to a single one.
  auto without_options = probe_options(options);
  without_options.record_residuals = true;
  const auto without = solve_greedy(view, ViewOverlay::without(winner), without_options);
  if (!without.allocation.feasible) {
    return 0.0;  // pivotal, as above
  }
  const double declared = view.total_contribution(winner);
  count_replay_probe(options);
  MCS_EXPECTS(replay_wins(view, without, winner, declared),
              "the binary-search critical bid is only defined for winners");
  count_replay_probe(options);
  if (replay_wins(view, without, winner, 0.0)) {
    return 0.0;
  }
  // Monotonicity (Lemma 2): wins(q) is a step function. Invariant: loses at
  // lo, wins at hi.
  double lo = 0.0;
  double hi = declared;
  for (int iter = 0; iter < options.binary_search_iterations; ++iter) {
    options.deadline.check("multi-task critical-bid search");
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
      ++options.counters->bisection_steps;
    }
    const double mid = 0.5 * (lo + hi);
    count_replay_probe(options);
    if (replay_wins(view, without, winner, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

double critical_contribution(const MultiTaskView& view, UserId winner,
                             const RewardOptions& options) {
  MCS_EXPECTS(winner >= 0 && static_cast<std::size_t>(winner) < view.num_users(),
              "user id out of range");
  MCS_EXPECTS(options.binary_search_iterations > 0, "need at least one bisection step");
  switch (options.rule) {
    case CriticalBidRule::kPaperIterationMin:
      return iteration_min_critical(view, winner, options);
    case CriticalBidRule::kBinarySearch:
      return binary_search_critical(view, winner, options);
  }
  throw common::PreconditionError("unknown critical-bid rule");
}

double critical_contribution(const MultiTaskInstance& instance, UserId winner,
                             const RewardOptions& options) {
  return critical_contribution(MultiTaskView::from_instance(instance), winner, options);
}

WinnerReward compute_reward(const MultiTaskView& view, UserId winner,
                            const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  WinnerReward result;
  result.user = winner;
  result.critical_contribution = critical_contribution(view, winner, options);
  result.reward.critical_pos = common::pos_from_contribution(result.critical_contribution);
  result.reward.cost = view.costs[static_cast<std::size_t>(winner)];
  result.reward.alpha = options.alpha;
  return result;
}

WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                            const RewardOptions& options) {
  return compute_reward(MultiTaskView::from_instance(instance), winner, options);
}

}  // namespace mcs::auction::multi_task
