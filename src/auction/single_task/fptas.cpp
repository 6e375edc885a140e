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
/// contribution_from_pos back, so the fast path must reason about the
/// round-tripped value, not q itself.
double roundtrip_contribution(double declared_q) {
  return common::contribution_from_pos(common::pos_from_contribution(declared_q));
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
  const double requirement = instance.requirement_contribution();
  const auto n = instance.num_users();

  Allocation result;
  if (!instance.is_feasible()) {
    return result;
  }

  // Sort user ids by (cost, id); ties broken by id for determinism.
  const std::span<const double> cost_col = columns.cost_span();
  const std::span<const double> q_col = columns.q_span();
  std::vector<UserId> order(n);
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    const double ca = cost_col[static_cast<std::size_t>(a)];
    const double cb = cost_col[static_cast<std::size_t>(b)];
    if (ca != cb) {
      return ca < cb;
    }
    return a < b;
  });

  // Costs and contributions gathered once into sorted-order rows; the
  // per-subproblem item builds below then stream these contiguously instead
  // of re-gathering through the permutation every round.
  std::vector<double> sorted_costs(n);
  std::vector<double> contributions(n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_costs[k] = cost_col[static_cast<std::size_t>(order[k])];
    contributions[k] = q_col[static_cast<std::size_t>(order[k])];
  }

  double best_scaled_value = std::numeric_limits<double>::infinity();
  std::vector<UserId> best_winners;
  double prefix_contribution = 0.0;
  std::vector<KnapsackItem> items;

  for (std::size_t k = 1; k <= n; ++k) {
    deadline.check("FPTAS subproblem scan");
    if (counters != nullptr) {
      ++counters->deadline_polls;
      ++counters->rounds;
    }
    prefix_contribution += contributions[k - 1];
    if (!common::approx_ge(prefix_contribution, requirement)) {
      continue;  // the first k users cannot cover the task
    }
    const double c_k = sorted_costs[k - 1];
    const double mu = epsilon * c_k / static_cast<double>(k);

    items.clear();
    items.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      // mu can only vanish if c_k does, which validate() excludes; still
      // guard so a pathological instance degrades instead of dividing by 0.
      const std::int64_t scaled =
          mu > 0.0 ? static_cast<std::int64_t>(std::floor(sorted_costs[j] / mu)) : 0;
      items.push_back({contributions[j], scaled});
    }

    const auto solution = solve_min_knapsack(items, requirement, deadline, kernel);
    if (!solution.has_value()) {
      continue;
    }
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

  if (best_winners.empty()) {
    // Knife-edge instance: the total contribution equals the requirement to
    // within rounding, so is_feasible() and the DP (which accumulates in a
    // different order) can disagree. Report infeasible rather than crash.
    return result;
  }
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
      requirement_(instance.requirement_contribution()) {
  MCS_EXPECTS(epsilon > 0.0, "approximation parameter must be positive");
  instance.validate();
  const std::size_t n = instance.num_users();
  MCS_EXPECTS(columns.size() == n, "columns must snapshot this instance");
  MCS_EXPECTS(winner >= 0 && static_cast<std::size_t>(winner) < n, "user id out of range");
  const std::size_t winner_index = static_cast<std::size_t>(winner);
  const std::span<const double> cost_col = columns.cost_span();
  const std::span<const double> q_col = columns.q_span();

  // is_feasible() replay state: the sequential id-order partial sum up to the
  // winner's slot and the per-id contributions after it. Re-folding
  // (prefix + q') + c_{w+1} + ... reproduces the oracle's sum exactly
  // because every non-probed term is the identical double.
  for (std::size_t k = 0; k < winner_index; ++k) {
    id_prefix_before_winner_ += q_col[k];
  }
  id_contributions_after_winner_.assign(q_col.begin() + static_cast<std::ptrdiff_t>(winner_index) + 1,
                                        q_col.end());

  // The (cost, id) order is probe-invariant: a critical-bid search changes
  // only the winner's declared PoS, never a cost.
  std::vector<UserId> order(n);
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    const double ca = cost_col[static_cast<std::size_t>(a)];
    const double cb = cost_col[static_cast<std::size_t>(b)];
    if (ca != cb) {
      return ca < cb;
    }
    return a < b;
  });
  position_ = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), winner_) - order.begin());

  sorted_costs_.resize(n, 0.0);
  sorted_contributions_.resize(n, 0.0);
  double max_finite_contribution = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sorted_costs_[k] = cost_col[static_cast<std::size_t>(order[k])];
    if (k == position_) {
      continue;  // slot m carries the probed contribution
    }
    sorted_contributions_[k] = q_col[static_cast<std::size_t>(order[k])];
    if (std::isfinite(sorted_contributions_[k])) {
      max_finite_contribution = std::max(max_finite_contribution, sorted_contributions_[k]);
    }
  }
  declared_roundtrip_ = roundtrip_contribution(q_col[winner_index]);
  if (std::isfinite(declared_roundtrip_)) {
    max_finite_contribution = std::max(max_finite_contribution, declared_roundtrip_);
  }
  // Magnitude bound on every intermediate of the (capped) contribution folds;
  // infinities are exact under IEEE arithmetic and need no band.
  const double fold_magnitude = 1.0 + requirement_ + max_finite_contribution;

  const double cost_winner = cost_col[winner_index];
  subproblems_.resize(n + 1);
  std::vector<KnapsackItem> items;
  double prefix_contribution = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    deadline_.check("FPTAS probe-context build");
    if (counters_ != nullptr) {
      ++counters_->deadline_polls;
      ++counters_->rounds;
    }
    prefix_contribution +=
        k - 1 == position_ ? declared_roundtrip_ : sorted_contributions_[k - 1];
    if (k - 1 < position_) {
      prefix_at_position_ = prefix_contribution;  // ends as the sum of slots [0, m)
    }
    Subproblem& sub = subproblems_[k];
    sub.mu = epsilon * sorted_costs_[k - 1] / static_cast<double>(k);

    if (k <= position_) {
      // The winner is outside the prefix: the oracle would solve the exact
      // same subproblem on every probe. Its filter uses the probe-free
      // prefix sum, so pass/fail is probe-independent too.
      if (!common::approx_ge(prefix_contribution, requirement_)) {
        continue;
      }
      items.clear();
      items.reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::int64_t scaled =
            sub.mu > 0.0 ? static_cast<std::int64_t>(std::floor(sorted_costs_[j] / sub.mu)) : 0;
        items.push_back({sorted_contributions_[j], scaled});
      }
      const auto solution = solve_min_knapsack(items, requirement_, deadline_, kernel_);
      if (solution.has_value()) {
        sub.constant_feasible = true;
        sub.constant_scaled_value = static_cast<double>(solution->total_scaled_cost) * sub.mu;
      }
      continue;
    }

    // k > m: the prefix filter is monotone in the probed contribution, and
    // every probe is at most the declared contribution, so a subproblem
    // filtered out here is filtered out on every probe — skip its frontier.
    if (!common::approx_ge(prefix_contribution, requirement_)) {
      continue;
    }
    sub.prepared = true;
    sub.scaled_cost_winner =
        sub.mu > 0.0 ? static_cast<std::int64_t>(std::floor(cost_winner / sub.mu)) : 0;
    items.clear();
    items.reserve(k - 1);
    for (std::size_t j = 0; j < k; ++j) {
      if (j == position_) {
        continue;
      }
      const std::int64_t scaled =
          sub.mu > 0.0 ? static_cast<std::int64_t>(std::floor(sorted_costs_[j] / sub.mu)) : 0;
      items.push_back({sorted_contributions_[j], scaled});
    }
    sub.frontier = min_knapsack_frontier(items, requirement_, deadline_, kernel_);
    // Cheapest without-winner cover: the frontier is cost-ascending and its
    // contributions are the oracle's own fold values, so this scan IS the
    // oracle's feasibility scan restricted to without-winner states.
    for (const FrontierEntry& entry : sub.frontier) {
      if (common::approx_ge(entry.contribution, requirement_)) {
        sub.cover_without_winner = entry.scaled_cost;
        break;
      }
      sub.cover_without_winner = kNoCover;
    }
    if (sub.frontier.empty()) {
      sub.cover_without_winner = kNoCover;
    }
    // Reassociation band: the oracle folds the probed contribution in at
    // slot m while the fast path appends it to a finished without-winner
    // fold. For a subset of p items both are sums of p+1 terms whose
    // intermediates stay below fold_magnitude, so they differ by at most
    // (p+2) rounding steps; the factor 4 is headroom. Lacking a tighter
    // bound, p = k covers every without-winner subset (at most k-1 items).
    const auto band_for = [&](std::size_t p) {
      return 4.0 * static_cast<double>(p + 2) * std::numeric_limits<double>::epsilon() *
             fold_magnitude;
    };
    sub.band = band_for(k);
    // Window-prune the stored frontier. Below: states whose contribution
    // cannot reach the requirement even with the largest legal probe are
    // never feasible. Above: the scan for the cheapest cover stops at the
    // first state that is certainly feasible on its own (everything after
    // it costs more), so keep entries up to and including that state.
    const double slack =
        2.0 * common::kDefaultEps * (1.0 + requirement_ + declared_roundtrip_) + 2.0 * sub.band;
    const double floor_contribution = requirement_ - declared_roundtrip_ - slack;
    std::size_t begin = 0;
    while (begin < sub.frontier.size() &&
           sub.frontier[begin].contribution < floor_contribution) {
      ++begin;
    }
    std::size_t end = begin;
    bool ends_at_cover = false;
    while (end < sub.frontier.size() && !ends_at_cover) {
      ends_at_cover = common::approx_ge(sub.frontier[end].contribution - sub.band, requirement_);
      ++end;
    }
    sub.frontier.erase(sub.frontier.begin() + static_cast<std::ptrdiff_t>(end),
                       sub.frontier.end());
    sub.frontier.erase(sub.frontier.begin(),
                       sub.frontier.begin() + static_cast<std::ptrdiff_t>(begin));
    // Cardinality-bounded band (DESIGN.md §8). Only without-winner subsets
    // costing at most the last kept entry can decide a probe, and such a
    // subset holds at most p_max items: the largest p whose p cheapest
    // scaled costs fit under that cost (`items` is cost-sorted). The window
    // above, pruned with the wider band, is a superset of the one the
    // tight band would keep. With a zero scaled cost the count is not
    // bounded by cost, so the k-term band stays.
    if (ends_at_cover && !items.empty() && items.front().scaled_cost > 0) {
      const std::int64_t cost_bound = sub.frontier.back().scaled_cost;
      std::size_t p_max = 0;
      std::int64_t cheapest_sum = 0;
      while (p_max < items.size() && cheapest_sum + items[p_max].scaled_cost <= cost_bound) {
        cheapest_sum += items[p_max].scaled_cost;
        ++p_max;
      }
      sub.band = band_for(p_max);
    }
  }
}

FptasProbeContext::CoverBounds FptasProbeContext::with_winner_cover_bounds(
    const Subproblem& sub, double probe_q) const {
  const auto& frontier = sub.frontier;
  // First state whose combined contribution passes the oracle's feasibility
  // test as the fast path computes it (state fold + probed contribution).
  const std::size_t split = static_cast<std::size_t>(
      std::partition_point(frontier.begin(), frontier.end(),
                           [&](const FrontierEntry& entry) {
                             return !common::approx_ge(entry.contribution + probe_q,
                                                       requirement_);
                           }) -
      frontier.begin());
  // Widen by the reassociation band: the oracle's interleaved fold may land
  // anywhere within +-band of ours, so the true first-feasible state lies
  // between the first possibly-feasible and the first certainly-feasible.
  std::size_t lo = split;
  while (lo > 0 &&
         common::approx_ge(frontier[lo - 1].contribution + probe_q + sub.band, requirement_)) {
    --lo;
  }
  std::size_t hi = split;
  while (hi < frontier.size() &&
         !common::approx_ge(frontier[hi].contribution + probe_q - sub.band, requirement_)) {
    ++hi;
  }
  CoverBounds bounds;
  bounds.lo = lo < frontier.size() ? frontier[lo].scaled_cost + sub.scaled_cost_winner : kNoCover;
  bounds.hi = hi < frontier.size() ? frontier[hi].scaled_cost + sub.scaled_cost_winner : kNoCover;
  return bounds;
}

FptasProbeContext::ExactSubproblem FptasProbeContext::solve_subproblem_exact(
    std::size_t k, double probe_q, std::int64_t cost_cap) const {
  if (counters_ != nullptr) {
    ++counters_->dp_reuse_exact_solves;
  }
  // Rebuild subproblem k's item list exactly as solve_fptas does — all k
  // users in (cost, id) order, the probed winner at slot m, the same μ/floor
  // arithmetic — and run the real Algorithm 1 DP on it. The result is
  // bit-identical to the oracle's for this subproblem by construction: it is
  // literally the same code on the same inputs, including the DP's state
  // order, which is what decides membership on an exact scaled-cost tie.
  const Subproblem& sub = subproblems_[k];
  std::vector<KnapsackItem> items;
  items.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::int64_t scaled =
        sub.mu > 0.0 ? static_cast<std::int64_t>(std::floor(sorted_costs_[j] / sub.mu)) : 0;
    items.push_back({j == position_ ? probe_q : sorted_contributions_[j], scaled});
  }
  const auto solution = solve_min_knapsack(items, requirement_, deadline_, kernel_, cost_cap);
  ExactSubproblem exact;
  if (!solution.has_value()) {
    return exact;
  }
  exact.feasible = true;
  exact.cover = solution->total_scaled_cost;
  exact.winner_selected = std::find(solution->items.begin(), solution->items.end(),
                                    position_) != solution->items.end();
  return exact;
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
  const double probe_q = roundtrip_contribution(declared_q);
  if (!(probe_q <= declared_roundtrip_)) {
    // Above the build-time declaration the pruned frontiers and skipped
    // subproblems are no longer conservative; answer with the real solver.
    return fallback_wins(declared_q);
  }

  // is_feasible() replay: the oracle returns an infeasible allocation (the
  // probe loses) when even the full user set falls short.
  double total = id_prefix_before_winner_ + probe_q;
  for (const double contribution : id_contributions_after_winner_) {
    total += contribution;
  }
  if (!common::approx_ge(total, requirement_)) {
    if (counters_ != nullptr) {
      ++counters_->dp_reuse_hits;
    }
    return false;
  }

  // Replay the subproblem scan: same k order, same `<=` argmin (later
  // subproblems win scaled-value ties, exactly like the oracle's update).
  double best_scaled_value = std::numeric_limits<double>::infinity();
  Membership best_membership = Membership::kLoses;
  std::size_t best_k = 0;  ///< only meaningful while best_membership is kAmbiguous
  bool any_feasible = false;
  bool resolved_exactly = false;  ///< any subproblem needed an exact re-solve
  const std::size_t n = sorted_contributions_.size();
  for (std::size_t k = 1; k <= position_; ++k) {
    const Subproblem& sub = subproblems_[k];
    if (!sub.constant_feasible) {
      continue;  // filtered out or no cover — identical on every probe
    }
    if (sub.constant_scaled_value <= best_scaled_value) {
      best_scaled_value = sub.constant_scaled_value;
      best_membership = Membership::kLoses;  // the winner is not in the prefix
      any_feasible = true;
    }
  }
  double prefix_contribution = prefix_at_position_;
  for (std::size_t k = position_ + 1; k <= n; ++k) {
    prefix_contribution += k - 1 == position_ ? probe_q : sorted_contributions_[k - 1];
    if (!common::approx_ge(prefix_contribution, requirement_)) {
      continue;
    }
    const Subproblem& sub = subproblems_[k];
    if (!sub.prepared) {
      return fallback_wins(declared_q);  // unreachable for probes <= declared
    }
    const CoverBounds with_winner = with_winner_cover_bounds(sub, probe_q);
    std::int64_t cover = 0;
    Membership membership = Membership::kLoses;
    if (sub.cover_without_winner <= with_winner.lo) {
      if (sub.cover_without_winner == kNoCover) {
        continue;  // neither side covers: the oracle's DP returns nullopt
      }
      cover = sub.cover_without_winner;
      membership = sub.cover_without_winner < with_winner.lo ? Membership::kLoses
                                                             : Membership::kAmbiguous;
    } else if (with_winner.lo == with_winner.hi) {
      cover = with_winner.lo;
      membership = Membership::kWins;  // strictly cheaper than any without-winner cover
    } else {
      // The with-winner cover cost is uncertain (the certificate band
      // straddles the feasibility boundary). A straddling state keeps the
      // same fold value in every larger subproblem that contains it, so near
      // the critical declaration MANY subproblems are uncertain at once —
      // but almost all of them are priced out: when even the optimistic
      // bound cannot win the `<=` argmin, the true value (>= lo, and the
      // scaling by mu > 0 preserves the order) cannot either, and whether
      // this subproblem is feasible no longer matters (best is finite, so
      // any_feasible is already set). Skip without resolving.
      if (static_cast<double>(with_winner.lo) * sub.mu > best_scaled_value) {
        continue;
      }
      // Still a contender: re-solve just this subproblem exactly.
      resolved_exactly = true;
      // The cover costs at most the cheaper of the exact without-winner
      // cover and the certified with-winner upper bound, so a DP capped
      // there returns the uncapped answer.
      const ExactSubproblem exact = solve_subproblem_exact(
          k, probe_q, std::min(sub.cover_without_winner, with_winner.hi));
      if (!exact.feasible) {
        continue;
      }
      cover = exact.cover;
      membership = exact.winner_selected ? Membership::kWins : Membership::kLoses;
    }
    const double scaled_value = static_cast<double>(cover) * sub.mu;
    if (scaled_value <= best_scaled_value) {
      best_scaled_value = scaled_value;
      best_membership = membership;
      best_k = k;
      any_feasible = true;
    }
  }

  if (!any_feasible) {
    if (counters_ != nullptr) {
      resolved_exactly ? ++counters_->dp_reuse_fallbacks : ++counters_->dp_reuse_hits;
    }
    return false;
  }
  if (best_membership == Membership::kAmbiguous) {
    // An exact scaled-cost tie at the winning subproblem: whether the oracle
    // reconstructs the with-winner or without-winner subset depends on state
    // order inside its DP — replay that one DP to find out. (Only the final
    // best needs this: an ambiguous k overwritten later in the argmin never
    // decides membership.)
    resolved_exactly = true;
    // An ambiguous cover is the exact without-winner cover: cap there.
    const ExactSubproblem exact =
        solve_subproblem_exact(best_k, probe_q, subproblems_[best_k].cover_without_winner);
    MCS_ENSURES(exact.feasible, "tied subproblem must stay feasible under exact re-solve");
    MCS_ENSURES(static_cast<double>(exact.cover) * subproblems_[best_k].mu == best_scaled_value,
                "exact re-solve must reproduce the certified cover cost");
    best_membership = exact.winner_selected ? Membership::kWins : Membership::kLoses;
  }
  if (counters_ != nullptr) {
    resolved_exactly ? ++counters_->dp_reuse_fallbacks : ++counters_->dp_reuse_hits;
  }
  return best_membership == Membership::kWins;
}

}  // namespace mcs::auction::single_task
