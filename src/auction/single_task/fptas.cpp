#include "auction/single_task/fptas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "auction/single_task/dp_knapsack.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::single_task {

namespace {

/// Sentinel scaled cost for "no subset covers the requirement". Small enough
/// that adding a real scaled cost to a non-sentinel value can never reach it.
constexpr std::int64_t kNoCover = std::numeric_limits<std::int64_t>::max();

/// Membership verdict for the subproblem that wins the scaled-value argmin.
enum class Membership { kLoses, kWins, kAmbiguous };

/// The q → PoS → q round trip every probe path applies: probes write
/// pos_from_contribution(q) into the instance and the solver reads
/// contribution_from_pos back, so the fast path must quantize the
/// round-tripped value, not q itself.
coverage::Amount roundtrip_amount(double declared_q) {
  return coverage::quantize(
      common::contribution_from_pos(common::pos_from_contribution(declared_q)));
}

/// User ids sorted by (cost, id); ties broken by id for determinism.
std::vector<UserId> cost_order(std::span<const double> costs) {
  std::vector<UserId> order(costs.size());
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    const double ca = costs[static_cast<std::size_t>(a)];
    const double cb = costs[static_cast<std::size_t>(b)];
    if (ca != cb) {
      return ca < cb;
    }
    return a < b;
  });
  return order;
}

/// floor(cost / μ_k). μ_k can only vanish if c_k does, which validate()
/// excludes; still guard so a pathological instance degrades instead of
/// dividing by 0.
std::int64_t scaled_cost(double cost, double mu) {
  return mu > 0.0 ? static_cast<std::int64_t>(std::floor(cost / mu)) : 0;
}

}  // namespace

Allocation solve_fptas(const SingleTaskInstance& instance, double epsilon,
                       const common::Deadline& deadline, obs::PhaseCounters* counters,
                       DpKernel kernel) {
  return solve_fptas(instance, BidColumns::from_single_task(instance), epsilon, deadline,
                     counters, kernel);
}

Allocation solve_fptas(const SingleTaskInstance& instance, const BidColumns& columns,
                       double epsilon, const common::Deadline& deadline,
                       obs::PhaseCounters* counters, DpKernel kernel) {
  MCS_EXPECTS(epsilon > 0.0, "approximation parameter must be positive");
  instance.validate();
  MCS_EXPECTS(columns.size() == instance.num_users(), "columns must snapshot this instance");
  const coverage::Amount threshold = coverage::threshold(instance.requirement_contribution());
  const auto n = instance.num_users();

  Allocation result;
  if (!instance.is_feasible()) {
    return result;
  }

  // Costs and contributions gathered once into (cost, id)-order rows; the
  // per-subproblem item builds below then stream these contiguously instead
  // of re-gathering through the permutation every round.
  const std::vector<UserId> order = cost_order(columns.cost_span());
  std::vector<double> sorted_costs(n);
  std::vector<coverage::Amount> amounts(n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_costs[k] = columns.cost[static_cast<std::size_t>(order[k])];
    amounts[k] = columns.amount[static_cast<std::size_t>(order[k])];
  }

  double best_scaled_value = std::numeric_limits<double>::infinity();
  std::vector<UserId> best_winners;
  coverage::Amount prefix_amount = 0;
  std::vector<KnapsackItem> items;

  for (std::size_t k = 1; k <= n; ++k) {
    deadline.check("FPTAS subproblem scan");
    if (counters != nullptr) {
      ++counters->deadline_polls;
      ++counters->rounds;
    }
    prefix_amount = coverage::add(prefix_amount, amounts[k - 1]);
    if (prefix_amount < threshold) {
      continue;  // the first k users cannot cover the task
    }
    const double mu = epsilon * sorted_costs[k - 1] / static_cast<double>(k);
    items.clear();
    items.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      items.push_back({amounts[j], scaled_cost(sorted_costs[j], mu)});
    }

    const auto solution = solve_min_knapsack(items, threshold, deadline, kernel);
    // The prefix covers the threshold, and integer sums do not depend on the
    // order the DP folds them in, so the DP finds that cover too.
    MCS_ENSURES(solution.has_value(), "a covering prefix must yield a knapsack cover");
    const double scaled_value = static_cast<double>(solution->total_scaled_cost) * mu;
    if (scaled_value <= best_scaled_value) {
      best_scaled_value = scaled_value;
      best_winners.clear();
      best_winners.reserve(solution->items.size());
      for (std::size_t item : solution->items) {
        best_winners.push_back(order[item]);
      }
    }
  }

  // is_feasible() and the k = n prefix are the same exact sum, and the
  // threshold is at least one unit, so a cover exists and is non-empty.
  MCS_ENSURES(!best_winners.empty(), "a feasible instance must yield a non-empty cover");
  std::sort(best_winners.begin(), best_winners.end());
  result.feasible = true;
  result.total_cost = instance.cost_of(best_winners);
  result.winners = std::move(best_winners);
  return result;
}

FptasProbeContext::FptasProbeContext(const SingleTaskInstance& instance, UserId winner,
                                     double epsilon, common::Deadline deadline,
                                     obs::PhaseCounters* counters, DpKernel kernel)
    : FptasProbeContext(instance, BidColumns::from_single_task(instance), winner, epsilon,
                        std::move(deadline), counters, kernel) {}

FptasProbeContext::FptasProbeContext(const SingleTaskInstance& instance,
                                     const BidColumns& columns, UserId winner, double epsilon,
                                     common::Deadline deadline, obs::PhaseCounters* counters,
                                     DpKernel kernel)
    : scratch_(instance),
      winner_(winner),
      epsilon_(epsilon),
      deadline_(std::move(deadline)),
      counters_(counters),
      kernel_(kernel),
      threshold_(coverage::threshold(instance.requirement_contribution())) {
  MCS_EXPECTS(epsilon > 0.0, "approximation parameter must be positive");
  instance.validate();
  const std::size_t n = instance.num_users();
  MCS_EXPECTS(columns.size() == n, "columns must snapshot this instance");
  MCS_EXPECTS(winner >= 0 && static_cast<std::size_t>(winner) < n, "user id out of range");
  const std::size_t winner_index = static_cast<std::size_t>(winner);

  // is_feasible() replay state: the exact total of everyone else.
  for (std::size_t k = 0; k < n; ++k) {
    if (k != winner_index) {
      others_amount_ = coverage::add(others_amount_, columns.amount[k]);
    }
  }

  // The (cost, id) order is probe-invariant: a critical-bid search changes
  // only the winner's declared PoS, never a cost.
  const std::vector<UserId> order = cost_order(columns.cost_span());
  position_ = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), winner_) - order.begin());
  sorted_costs_.resize(n, 0.0);
  sorted_amounts_.resize(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_costs_[k] = columns.cost[static_cast<std::size_t>(order[k])];
    if (k != position_) {  // slot m carries the probed contribution
      sorted_amounts_[k] = columns.amount[static_cast<std::size_t>(order[k])];
    }
  }
  declared_amount_ = roundtrip_amount(columns.q[winner_index]);

  const double cost_winner = columns.cost[winner_index];
  subproblems_.resize(n + 1);
  std::vector<KnapsackItem> items;
  coverage::Amount prefix_amount = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    deadline_.check("FPTAS probe-context build");
    if (counters_ != nullptr) {
      ++counters_->deadline_polls;
      ++counters_->rounds;
    }
    prefix_amount = coverage::add(
        prefix_amount, k - 1 == position_ ? declared_amount_ : sorted_amounts_[k - 1]);
    if (k - 1 < position_) {
      prefix_at_position_ = prefix_amount;  // ends as the sum of slots [0, m)
    }
    // The prefix filter is monotone in the probed contribution, and every
    // probe is at most the declared one, so a subproblem filtered out here
    // is filtered out on every probe — skip it.
    if (prefix_amount < threshold_) {
      continue;
    }
    Subproblem& sub = subproblems_[k];
    sub.mu = epsilon * sorted_costs_[k - 1] / static_cast<double>(k);
    items.clear();
    items.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (j != position_) {
        items.push_back({sorted_amounts_[j], scaled_cost(sorted_costs_[j], sub.mu)});
      }
    }

    if (k <= position_) {
      // The winner is outside the prefix: the oracle solves the exact same
      // subproblem on every probe.
      const auto solution = solve_min_knapsack(items, threshold_, deadline_, kernel_);
      MCS_ENSURES(solution.has_value(), "a covering prefix must yield a knapsack cover");
      sub.constant_feasible = true;
      sub.constant_scaled_value = static_cast<double>(solution->total_scaled_cost) * sub.mu;
      continue;
    }

    // k > m: one frontier over the other k-1 items. Contributions are
    // capped at the threshold and strictly ascending, so the frontier ends
    // at its first entry that covers alone: the cheapest without-winner
    // cover, when there is one.
    sub.prepared = true;
    sub.scaled_cost_winner = scaled_cost(cost_winner, sub.mu);
    sub.frontier = min_knapsack_frontier(items, threshold_, deadline_, kernel_);
    sub.cover_without_winner = sub.frontier.back().contribution >= threshold_
                                   ? sub.frontier.back().scaled_cost
                                   : kNoCover;
    // Drop states that cannot cover even with the largest legal probe.
    const auto reachable = std::partition_point(
        sub.frontier.begin(), sub.frontier.end(), [&](const FrontierEntry& entry) {
          return coverage::add(entry.contribution, declared_amount_) < threshold_;
        });
    sub.frontier.erase(sub.frontier.begin(), reachable);
  }
}

std::int64_t FptasProbeContext::with_winner_cover(const Subproblem& sub,
                                                  coverage::Amount probe) const {
  // First state that covers once the probed contribution joins it. The
  // integer sum is the one the oracle's DP computes for that subset plus
  // the winner, whatever slot it folds the winner in at.
  const auto cover = std::partition_point(
      sub.frontier.begin(), sub.frontier.end(), [&](const FrontierEntry& entry) {
        return coverage::add(entry.contribution, probe) < threshold_;
      });
  return cover == sub.frontier.end() ? kNoCover : cover->scaled_cost + sub.scaled_cost_winner;
}

bool FptasProbeContext::winner_in_tied_cover(std::size_t k, coverage::Amount probe,
                                             std::int64_t cover) const {
  if (counters_ != nullptr) {
    ++counters_->dp_reuse_exact_solves;
  }
  // Rebuild subproblem k's item list exactly as solve_fptas does — all k
  // users in (cost, id) order, the probed winner at slot m, the same μ/floor
  // arithmetic — and run the real Algorithm 1 DP on it: the DP's state order
  // decides which of two equal-cost covers it reconstructs.
  const Subproblem& sub = subproblems_[k];
  std::vector<KnapsackItem> items;
  items.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    items.push_back(
        {j == position_ ? probe : sorted_amounts_[j], scaled_cost(sorted_costs_[j], sub.mu)});
  }
  // The cover costs exactly `cover`, so a DP capped there returns the
  // uncapped answer.
  const auto solution = solve_min_knapsack(items, threshold_, deadline_, kernel_, cover);
  MCS_ENSURES(solution.has_value() && solution->total_scaled_cost == cover,
              "exact re-solve must reproduce the tied cover cost");
  return std::find(solution->items.begin(), solution->items.end(), position_) !=
         solution->items.end();
}

bool FptasProbeContext::fallback_wins(double declared_q) {
  if (counters_ != nullptr) {
    ++counters_->dp_reuse_fallbacks;
  }
  // Exactly the scratch probe path: write the declaration and run the real
  // solver. Bit-identical to the oracle by construction.
  scratch_.bids[static_cast<std::size_t>(winner_)].pos =
      common::pos_from_contribution(declared_q);
  const auto allocation = solve_fptas(scratch_, epsilon_, deadline_, counters_, kernel_);
  return allocation.feasible && allocation.contains(winner_);
}

bool FptasProbeContext::wins(double declared_q) {
  const coverage::Amount probe = roundtrip_amount(declared_q);
  if (probe > declared_amount_) {
    // Above the build-time declaration the pruned frontiers and skipped
    // subproblems are no longer conservative; answer with the real solver.
    return fallback_wins(declared_q);
  }
  // is_feasible() replay: the oracle returns an infeasible allocation (the
  // probe loses) when even the full user set falls short.
  if (coverage::add(others_amount_, probe) < threshold_) {
    if (counters_ != nullptr) {
      ++counters_->dp_reuse_hits;
    }
    return false;
  }

  // Replay the subproblem scan: same k order, same `<=` argmin (later
  // subproblems win scaled-value ties, exactly like the oracle's update).
  double best_scaled_value = std::numeric_limits<double>::infinity();
  Membership best_membership = Membership::kLoses;
  std::size_t best_k = 0;
  std::int64_t best_cover = 0;
  for (std::size_t k = 1; k <= position_; ++k) {
    const Subproblem& sub = subproblems_[k];
    if (sub.constant_feasible && sub.constant_scaled_value <= best_scaled_value) {
      best_scaled_value = sub.constant_scaled_value;
      best_membership = Membership::kLoses;  // the winner is not in the prefix
    }
  }
  coverage::Amount prefix_amount = prefix_at_position_;
  for (std::size_t k = position_ + 1; k < subproblems_.size(); ++k) {
    prefix_amount =
        coverage::add(prefix_amount, k - 1 == position_ ? probe : sorted_amounts_[k - 1]);
    if (prefix_amount < threshold_) {
      continue;
    }
    const Subproblem& sub = subproblems_[k];
    MCS_ENSURES(sub.prepared, "a prefix that covers at the probe covers at the declaration");
    const std::int64_t with_winner = with_winner_cover(sub, probe);
    const std::int64_t cover = std::min(with_winner, sub.cover_without_winner);
    MCS_ENSURES(cover != kNoCover, "a covering prefix must yield a knapsack cover");
    const double scaled_value = static_cast<double>(cover) * sub.mu;
    if (scaled_value <= best_scaled_value) {
      best_scaled_value = scaled_value;
      best_membership = with_winner < sub.cover_without_winner   ? Membership::kWins
                        : with_winner > sub.cover_without_winner ? Membership::kLoses
                                                                 : Membership::kAmbiguous;
      best_k = k;
      best_cover = cover;
    }
  }

  bool tie_resolved = false;
  if (best_membership == Membership::kAmbiguous) {
    // An exact scaled-cost tie at the winning subproblem: whether the oracle
    // reconstructs the with-winner or without-winner subset depends on state
    // order inside its DP — replay that one DP to find out. (Only the final
    // best needs this: an ambiguous k overwritten later in the argmin never
    // decides membership.)
    tie_resolved = true;
    best_membership = winner_in_tied_cover(best_k, probe, best_cover) ? Membership::kWins
                                                                      : Membership::kLoses;
  }
  if (counters_ != nullptr) {
    tie_resolved ? ++counters_->dp_reuse_fallbacks : ++counters_->dp_reuse_hits;
  }
  return best_membership == Membership::kWins;
}

}  // namespace mcs::auction::single_task
