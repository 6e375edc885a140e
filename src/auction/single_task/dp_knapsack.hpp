// Algorithm 1 of the paper: dynamic programming for the (minimum) knapsack
// problem over states (I, Q, C) with dominance pruning. A state records a
// subset of the first j items with total contribution Q and total (integer,
// already-scaled) cost C; state (I, Q, C) dominates (I', Q', C') when
// C <= C' and Q >= Q'. The surviving states per prefix form a Pareto frontier
// ordered by strictly increasing cost and contribution, so the minimum-cost
// feasible state is found by a scan.
//
// Contributions are coverage::Amount integers (auction/coverage.hpp) and the
// requirement is the integer threshold T, so every state's contribution is
// the exact saturating sum of its items, capped at T, whatever order the
// sweep folded them in. That is what lets the critical-bid probe context
// combine a without-winner frontier with a probed contribution and get the
// value a full re-solve computes (DESIGN.md §8).
//
// Item subsets are reconstructed through parent links in a state pool rather
// than stored per state, keeping the DP O(#states) in memory.
//
// Two kernels implement the sweep (auction::DpKernel). kColumns, the
// default, keeps the frontier as two contiguous (cost, contribution) arrays
// and merges extensions with a branch-light two-pointer pass — no state
// pool, no index indirection, parent links in a side pool only when the
// caller reconstructs a subset. kScalarOracle is the original pooled
// implementation, retained as the differential oracle. Both perform the
// identical comparisons on the identical values, so frontier entries, chosen
// subsets, and tie-breaks are equal (tests/dp_kernel_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "auction/coverage.hpp"
#include "auction/types.hpp"
#include "common/deadline.hpp"

namespace mcs::auction::single_task {

/// One knapsack item: a quantized contribution and an integer (scaled) cost.
/// Costs must be non-negative; contributions must lie in
/// [0, coverage::kSaturated] (kSaturated for a declared PoS of 1).
struct KnapsackItem {
  coverage::Amount contribution = 0;
  std::int64_t scaled_cost = 0;
};

/// Solution of the minimum knapsack: chosen item indices (ascending), their
/// total scaled cost and total contribution.
struct KnapsackSolution {
  std::vector<std::size_t> items;
  std::int64_t total_scaled_cost = 0;
  coverage::Amount total_contribution = 0;
};

/// One surviving Pareto state of the minimum-knapsack sweep, stripped of its
/// reconstruction links: the subset's (already-scaled) integer cost and its
/// capped contribution. Within a frontier costs are non-decreasing (equal
/// costs can coexist at distinct contributions) and contributions strictly
/// ascending, so a frontier ends at its first entry that reaches the cap.
struct FrontierEntry {
  std::int64_t scaled_cost = 0;
  coverage::Amount contribution = 0;
};

/// The final Pareto frontier of the Algorithm 1 sweep over `items` with
/// contributions capped at `threshold` — the values solve_min_knapsack
/// scans, without materializing any subset. The single-task reward fast path
/// builds one frontier per (winner, FPTAS subproblem) over the OTHER items
/// and answers every critical-bid probe against it (DESIGN.md §8). Polls
/// `deadline` once per item, like solve_min_knapsack. The frontier-only path
/// never allocates parent links under kColumns: the probe context builds
/// thousands of these per reward phase and needs only the (cost,
/// contribution) rows.
std::vector<FrontierEntry> min_knapsack_frontier(std::span<const KnapsackItem> items,
                                                 coverage::Amount threshold,
                                                 const common::Deadline& deadline = {},
                                                 DpKernel kernel = DpKernel::kColumns);

/// Minimum-cost subset with total contribution >= threshold, or nullopt
/// when even the full item set falls short. Contributions are capped at
/// `threshold` during the DP (capping preserves optimality for a covering
/// constraint and sharpens dominance pruning). The sweep polls `deadline`
/// once per item and throws common::DeadlineExceeded when it expires.
///
/// `cost_cap` (>= 0 when set) drops every state costing more than it during
/// the sweep. The frontier is cost-ordered and an extension never costs
/// less than the state it extends, so the states at or below the cap are
/// the uncapped sweep's states with the same values, in the same order,
/// with the same reconstruction links. Hence: when the uncapped cover costs
/// at most `cost_cap` the result is identical (items, total cost, total
/// contribution, tie-breaks included); otherwise it is nullopt. The
/// single-task probe context passes a cap it has already proven to bound the
/// cover, to make its tie re-solves cheaper without changing them.
std::optional<KnapsackSolution> solve_min_knapsack(
    std::span<const KnapsackItem> items, coverage::Amount threshold,
    const common::Deadline& deadline = {}, DpKernel kernel = DpKernel::kColumns,
    std::optional<std::int64_t> cost_cap = std::nullopt);

/// The dual form Algorithm 1's discussion also describes: the
/// maximum-contribution subset whose total scaled cost stays within
/// `budget`. Always has a solution (the empty set). Budgeted coverage is the
/// primitive behind budget-feasible crowdsensing (the paper's reference
/// [5]): recruit the best task coverage a fixed budget can buy.
KnapsackSolution solve_max_knapsack(std::span<const KnapsackItem> items, std::int64_t budget,
                                    DpKernel kernel = DpKernel::kColumns);

}  // namespace mcs::auction::single_task
