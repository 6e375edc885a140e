#include "auction/multi_task/reward.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "auction/multi_task/gain.hpp"
#include "auction/multi_task/greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::multi_task {

namespace {

/// Counts one probe: the without-i run and every replay are one each.
void count_probe(const RewardOptions& options) {
  if (options.counters != nullptr) {
    ++options.counters->probes;
  }
}

/// The without-i run of `user`, resumed from the main run; with
/// `stop_once_covered` its suffix ends where the replay stops reading.
WithoutRun without_run(const MultiTaskView& view, const RecordedRun& main, UserId user,
                       const RewardOptions& options, bool stop_once_covered) {
  count_probe(options);
  return solve_greedy_without(view, main, user,
                              GreedyOptions{.deadline = options.deadline,
                                            .record_residuals = stop_once_covered,
                                            .counters = options.counters},
                              stop_once_covered);
}

/// Whether user i would enter the greedy cover when declaring
/// `declared_total`, answered by REPLAYING the without-i run instead of
/// re-solving. The with-i greedy run picks exactly the without-i run's users
/// (same residual trajectory) until the first round where i tops the argmax,
/// so i wins iff some recorded round's winner is beaten by i's ratio at that
/// round's residuals — strict ratio comparison, lowest-id tie-break, the
/// reference scan's rule verbatim. All doubles involved are the ones a full
/// re-solve would compute, so the answer is bit-identical; the cost is
/// O(rounds · |S_i|) per probe instead of a full re-solve.
/// Precondition: `without` is feasible and its steps carry residuals (i's
/// pivotality was already ruled out) — feasibility with i present at any
/// declaration follows, since the other users alone cover the requirements.
bool replay_wins(const MultiTaskView& view, const WithoutRun& without, UserId user,
                 double declared_total) {
  const auto overlay = ViewOverlay::with_declared_total_contribution(view, user, declared_total);
  const auto tasks = view.user_tasks(user);
  const auto contributions = overlay.contributions_of(view, user);
  const double cost = view.costs[static_cast<std::size_t>(user)];
  for (const auto steps : {without.prefix, std::span<const GreedyStep>(without.suffix)}) {
    for (const auto& step : steps) {
      const double effective = effective_contribution(tasks, contributions, step.residual_before);
      if (effective <= 0.0) {
        // Residuals only shrink along the run, so a vanished gain never
        // recovers: i can no longer be selected in any later round. This is
        // also why the without-i run may stop once her tasks are covered.
        return false;
      }
      const double ratio = effective / cost;
      if (ratio > step.ratio || (ratio == step.ratio && user < step.selected)) {
        return true;
      }
    }
  }
  return false;
}

/// The paper's Algorithm 5: minimum over the without-i iterations of the
/// contribution needed to beat that iteration's winner ratio.
double iteration_min_critical(const MultiTaskView& view, const RecordedRun& main, UserId user,
                              const RewardOptions& options) {
  const auto without = without_run(view, main, user, options, /*stop_once_covered=*/false);
  if (!without.feasible) {
    // i is pivotal: with any positive declaration the greedy loop must
    // eventually select her, so her critical contribution vanishes.
    return 0.0;
  }
  const double cost_i = view.costs[static_cast<std::size_t>(user)];
  double critical = std::numeric_limits<double>::infinity();
  for (const auto steps : {without.prefix, std::span<const GreedyStep>(without.suffix)}) {
    for (const auto& step : steps) {
      const double cost_k = view.costs[static_cast<std::size_t>(step.selected)];
      // Σ_j min{Q̄_j, q_k^j} is recorded as the step's effective
      // contribution; beating user k's ratio requires contribution >= c_i/c_k
      // times it.
      critical = std::min(critical, (cost_i / cost_k) * step.effective_contribution);
    }
  }
  MCS_ENSURES(critical < std::numeric_limits<double>::infinity(),
              "a feasible without-i run must have at least one iteration");
  return critical;
}

/// Myerson-style rule: binary search for the smallest total declared
/// contribution (along the winner's own task-PoS direction) that still wins.
double binary_search_critical(const MultiTaskView& view, const RecordedRun& main, UserId winner,
                              const RewardOptions& options) {
  // ONE without-i run powers every bisection probe below via replay_wins.
  const auto without = without_run(view, main, winner, options, /*stop_once_covered=*/true);
  if (!without.feasible) {
    return 0.0;  // pivotal, as above
  }
  const double declared = view.total_contribution(winner);
  count_probe(options);
  MCS_EXPECTS(replay_wins(view, without, winner, declared),
              "the binary-search critical bid is only defined for winners");
  count_probe(options);
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
    count_probe(options);
    if (replay_wins(view, without, winner, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// The main run as the standalone overloads record it: keep_partial keeps a
/// stalled run's steps, which a user of an infeasible instance resumes from.
RecordedRun record_main_run(const MultiTaskView& view, const RewardOptions& options) {
  auto main = record_greedy(view, GreedyOptions{.deadline = options.deadline,
                                                .keep_partial = true,
                                                .counters = options.counters});
  if (main.result.timed_out) {
    options.deadline.check("multi-task greedy cover");
  }
  return main;
}

}  // namespace

double critical_contribution(const MultiTaskView& view, const RecordedRun& main, UserId user,
                             const RewardOptions& options) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < view.num_users(),
              "user id out of range");
  MCS_EXPECTS(options.binary_search_iterations > 0, "need at least one bisection step");
  switch (options.rule) {
    case CriticalBidRule::kPaperIterationMin:
      return iteration_min_critical(view, main, user, options);
    case CriticalBidRule::kBinarySearch:
      return binary_search_critical(view, main, user, options);
  }
  throw common::PreconditionError("unknown critical-bid rule");
}

double critical_contribution(const MultiTaskView& view, UserId user,
                             const RewardOptions& options) {
  return critical_contribution(view, record_main_run(view, options), user, options);
}

double critical_contribution(const MultiTaskInstance& instance, UserId user,
                             const RewardOptions& options) {
  return critical_contribution(MultiTaskView::from_instance(instance), user, options);
}

WinnerReward compute_reward(const MultiTaskView& view, const RecordedRun& main, UserId winner,
                            const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  WinnerReward result;
  result.user = winner;
  result.critical_contribution = critical_contribution(view, main, winner, options);
  result.reward.critical_pos = common::pos_from_contribution(result.critical_contribution);
  result.reward.cost = view.costs[static_cast<std::size_t>(winner)];
  result.reward.alpha = options.alpha;
  return result;
}

WinnerReward compute_reward(const MultiTaskView& view, UserId winner,
                            const RewardOptions& options) {
  return compute_reward(view, record_main_run(view, options), winner, options);
}

WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                            const RewardOptions& options) {
  return compute_reward(MultiTaskView::from_instance(instance), winner, options);
}

}  // namespace mcs::auction::multi_task
