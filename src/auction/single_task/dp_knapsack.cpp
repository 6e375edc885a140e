#include "auction/single_task/dp_knapsack.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::single_task {

namespace {

/// A DP state; subsets are reconstructed by following `parent` links.
struct State {
  std::int64_t cost = 0;
  double contribution = 0.0;
  std::int32_t item = -1;    ///< item added to create this state; -1 for the root
  std::int32_t parent = -1;  ///< pool index of the predecessor state
};

/// Runs the Algorithm 1 sweep: builds the Pareto frontier (cost ascending,
/// contribution ascending) over all items. Contributions are capped at
/// `contribution_cap` when finite; states with cost > cost_cap are dropped
/// when cost_cap >= 0. Returns the state pool and the final frontier.
std::pair<std::vector<State>, std::vector<std::int32_t>> sweep(
    std::span<const KnapsackItem> items, double contribution_cap, std::int64_t cost_cap,
    const common::Deadline& deadline = {}) {
  std::vector<State> pool;
  pool.push_back(State{});  // the empty set
  std::vector<std::int32_t> frontier{0};
  std::vector<std::int32_t> merged;
  std::vector<State> extensions;

  for (std::size_t j = 0; j < items.size(); ++j) {
    deadline.check("knapsack DP sweep");
    const auto& item = items[j];
    // Extend every frontier state with item j. The extension list inherits
    // the frontier's cost order because the added cost is constant.
    extensions.clear();
    extensions.reserve(frontier.size());
    for (std::int32_t state_index : frontier) {
      const State& state = pool[static_cast<std::size_t>(state_index)];
      const std::int64_t cost = state.cost + item.scaled_cost;
      if (cost_cap >= 0 && cost > cost_cap) {
        continue;  // over budget; extensions of it would be too
      }
      extensions.push_back(State{cost,
                                 std::min(contribution_cap, state.contribution + item.contribution),
                                 static_cast<std::int32_t>(j), state_index});
    }

    // Merge (old frontier, extensions) by cost, old-first on ties so that the
    // smaller subset is preferred; then drop dominated states.
    merged.clear();
    merged.reserve(frontier.size() + extensions.size());
    std::size_t a = 0;
    std::size_t b = 0;
    double best_contribution = -1.0;
    while (a < frontier.size() || b < extensions.size()) {
      const bool take_old =
          b >= extensions.size() ||
          (a < frontier.size() &&
           pool[static_cast<std::size_t>(frontier[a])].cost <= extensions[b].cost);
      if (take_old) {
        const State& state = pool[static_cast<std::size_t>(frontier[a])];
        if (state.contribution > best_contribution) {
          merged.push_back(frontier[a]);
          best_contribution = state.contribution;
        }
        ++a;
      } else {
        // Materialize the extension in the pool only if it survives pruning.
        if (extensions[b].contribution > best_contribution) {
          pool.push_back(extensions[b]);
          merged.push_back(static_cast<std::int32_t>(pool.size() - 1));
          best_contribution = extensions[b].contribution;
        }
        ++b;
      }
    }
    frontier.swap(merged);
  }
  return {std::move(pool), std::move(frontier)};
}

KnapsackSolution reconstruct(const std::vector<State>& pool, std::int32_t state_index) {
  KnapsackSolution solution;
  const State& state = pool[static_cast<std::size_t>(state_index)];
  solution.total_scaled_cost = state.cost;
  solution.total_contribution = state.contribution;
  for (std::int32_t cursor = state_index; cursor >= 0;) {
    const State& node = pool[static_cast<std::size_t>(cursor)];
    if (node.item >= 0) {
      solution.items.push_back(static_cast<std::size_t>(node.item));
    }
    cursor = node.parent;
  }
  std::reverse(solution.items.begin(), solution.items.end());
  return solution;
}

void check_items(std::span<const KnapsackItem> items) {
  for (const auto& item : items) {
    MCS_EXPECTS(item.scaled_cost >= 0, "scaled costs must be non-negative");
    MCS_EXPECTS(item.contribution >= 0.0, "contributions must be non-negative");
  }
}

// ---- kColumns kernel ------------------------------------------------------
//
// The frontier lives in two parallel, contiguous rows: costs[] and
// contribs[]. Each item's pass first materializes the extension rows in two
// tight loops the compiler can vectorize (an integer add lane and a
// min(cap, +) lane), then merges old row and extension row with the same
// two-pointer, old-first-on-ties, dominance-pruning walk the scalar oracle
// performs. Every comparison runs on the same doubles in the same order as
// the oracle, so survivors and their order are bit-identical; only the
// storage changed. Parent links for subset reconstruction sit in a separate
// node pool that exists only when the caller asked to reconstruct — the
// frontier-only path (the reward probe context's inner loop) touches pure
// value rows and allocates no parent state at all.

/// One reconstruction node: the item that created a surviving extension and
/// the node id of the state it extended. Root is node 0 (item -1).
struct ParentNode {
  std::int32_t item = -1;
  std::int32_t parent = -1;
};

/// Final frontier rows of the columns sweep; `ids`/`pool` are populated only
/// when the sweep ran with track_parents.
struct ColumnsResult {
  std::vector<std::int64_t> costs;
  std::vector<double> contribs;
  std::vector<std::int32_t> ids;  ///< parent-pool node id per frontier entry
  std::vector<ParentNode> pool;
};

ColumnsResult sweep_columns(std::span<const KnapsackItem> items, double contribution_cap,
                            std::int64_t cost_cap, const common::Deadline& deadline,
                            bool track_parents) {
  ColumnsResult result;
  result.costs.push_back(0);        // the empty set
  result.contribs.push_back(0.0);
  if (track_parents) {
    result.pool.push_back(ParentNode{});
    result.ids.push_back(0);
  }

  // Double-buffered rows; capacity is retained across items via swap.
  std::vector<std::int64_t> next_costs;
  std::vector<double> next_contribs;
  std::vector<std::int32_t> next_ids;
  std::vector<std::int64_t> ext_costs;
  std::vector<double> ext_contribs;

  for (std::size_t j = 0; j < items.size(); ++j) {
    deadline.check("knapsack DP sweep");
    const auto& item = items[j];
    const std::size_t n = result.costs.size();

    // Extension rows: contiguous, branch-free, auto-vectorizable.
    ext_costs.resize(n);
    ext_contribs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ext_costs[i] = result.costs[i] + item.scaled_cost;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ext_contribs[i] = std::min(contribution_cap, result.contribs[i] + item.contribution);
    }
    // Frontier costs are non-decreasing and the added cost is constant, so
    // over-budget extensions form a suffix: a boundary replaces the oracle's
    // per-entry skip without changing which extensions survive.
    std::size_t ext_end = n;
    if (cost_cap >= 0) {
      while (ext_end > 0 && ext_costs[ext_end - 1] > cost_cap) {
        --ext_end;
      }
    }

    // Output rows are written through a cursor into pre-sized buffers (a
    // surviving merge never exceeds n + ext_end rows), and the merge drains
    // the leftover run in dedicated tail loops — fewer per-entry branches
    // than the oracle's generic loop, but the comparisons themselves (cost
    // `<=` old-first, contribution `> best`) run on the same values in the
    // same order, so the survivors are identical.
    next_costs.resize(n + ext_end);
    next_contribs.resize(n + ext_end);
    if (track_parents) {
      next_ids.resize(n + ext_end);
    }
    const std::int64_t* old_costs = result.costs.data();
    const double* old_contribs = result.contribs.data();
    std::int64_t* out_costs = next_costs.data();
    double* out_contribs = next_contribs.data();
    std::size_t out = 0;
    std::size_t a = 0;
    std::size_t b = 0;
    double best_contribution = -1.0;
    while (a < n && b < ext_end) {
      if (old_costs[a] <= ext_costs[b]) {
        if (old_contribs[a] > best_contribution) {
          out_costs[out] = old_costs[a];
          out_contribs[out] = old_contribs[a];
          if (track_parents) {
            next_ids[out] = result.ids[a];
          }
          best_contribution = old_contribs[a];
          ++out;
        }
        ++a;
      } else {
        if (ext_contribs[b] > best_contribution) {
          out_costs[out] = ext_costs[b];
          out_contribs[out] = ext_contribs[b];
          if (track_parents) {
            result.pool.push_back(ParentNode{static_cast<std::int32_t>(j), result.ids[b]});
            next_ids[out] = static_cast<std::int32_t>(result.pool.size() - 1);
          }
          best_contribution = ext_contribs[b];
          ++out;
        }
        ++b;
      }
    }
    for (; a < n; ++a) {
      if (old_contribs[a] > best_contribution) {
        out_costs[out] = old_costs[a];
        out_contribs[out] = old_contribs[a];
        if (track_parents) {
          next_ids[out] = result.ids[a];
        }
        best_contribution = old_contribs[a];
        ++out;
      }
    }
    for (; b < ext_end; ++b) {
      if (ext_contribs[b] > best_contribution) {
        out_costs[out] = ext_costs[b];
        out_contribs[out] = ext_contribs[b];
        if (track_parents) {
          result.pool.push_back(ParentNode{static_cast<std::int32_t>(j), result.ids[b]});
          next_ids[out] = static_cast<std::int32_t>(result.pool.size() - 1);
        }
        best_contribution = ext_contribs[b];
        ++out;
      }
    }
    next_costs.resize(out);
    next_contribs.resize(out);
    result.costs.swap(next_costs);
    result.contribs.swap(next_contribs);
    if (track_parents) {
      next_ids.resize(out);
      result.ids.swap(next_ids);
    }
  }
  return result;
}

KnapsackSolution reconstruct_columns(const ColumnsResult& result, std::size_t entry) {
  KnapsackSolution solution;
  solution.total_scaled_cost = result.costs[entry];
  solution.total_contribution = result.contribs[entry];
  for (std::int32_t cursor = result.ids[entry]; cursor >= 0;) {
    const ParentNode& node = result.pool[static_cast<std::size_t>(cursor)];
    if (node.item >= 0) {
      solution.items.push_back(static_cast<std::size_t>(node.item));
    }
    cursor = node.parent;
  }
  std::reverse(solution.items.begin(), solution.items.end());
  return solution;
}

}  // namespace

std::vector<FrontierEntry> min_knapsack_frontier(std::span<const KnapsackItem> items,
                                                 double requirement,
                                                 const common::Deadline& deadline,
                                                 DpKernel kernel) {
  MCS_EXPECTS(requirement >= 0.0, "requirement must be non-negative");
  check_items(items);
  std::vector<FrontierEntry> entries;
  if (kernel == DpKernel::kScalarOracle) {
    const auto [pool, frontier] = sweep(items, requirement, /*cost_cap=*/-1, deadline);
    entries.reserve(frontier.size());
    for (std::int32_t state_index : frontier) {
      const State& state = pool[static_cast<std::size_t>(state_index)];
      entries.push_back({state.cost, state.contribution});
    }
    return entries;
  }
  const ColumnsResult result =
      sweep_columns(items, requirement, /*cost_cap=*/-1, deadline, /*track_parents=*/false);
  entries.reserve(result.costs.size());
  for (std::size_t i = 0; i < result.costs.size(); ++i) {
    entries.push_back({result.costs[i], result.contribs[i]});
  }
  return entries;
}

std::optional<KnapsackSolution> solve_min_knapsack(std::span<const KnapsackItem> items,
                                                   double requirement,
                                                   const common::Deadline& deadline,
                                                   DpKernel kernel,
                                                   std::optional<std::int64_t> cost_cap) {
  MCS_EXPECTS(requirement >= 0.0, "requirement must be non-negative");
  MCS_EXPECTS(!cost_cap.has_value() || *cost_cap >= 0, "cost cap must be non-negative");
  check_items(items);
  const std::int64_t cap = cost_cap.value_or(-1);  // the sweeps read -1 as "no cap"
  // Minimum-cost feasible state: the frontier is cost-ascending, so the first
  // state meeting the requirement is optimal.
  if (kernel == DpKernel::kScalarOracle) {
    const auto [pool, frontier] = sweep(items, requirement, cap, deadline);
    for (std::int32_t state_index : frontier) {
      const State& state = pool[static_cast<std::size_t>(state_index)];
      if (common::approx_ge(state.contribution, requirement)) {
        return reconstruct(pool, state_index);
      }
    }
    return std::nullopt;
  }
  const ColumnsResult result =
      sweep_columns(items, requirement, cap, deadline, /*track_parents=*/true);
  for (std::size_t i = 0; i < result.costs.size(); ++i) {
    if (common::approx_ge(result.contribs[i], requirement)) {
      return reconstruct_columns(result, i);
    }
  }
  return std::nullopt;
}

KnapsackSolution solve_max_knapsack(std::span<const KnapsackItem> items, std::int64_t budget,
                                    DpKernel kernel) {
  MCS_EXPECTS(budget >= 0, "budget must be non-negative");
  check_items(items);
  // The frontier is contribution-ascending, so its last state (all states
  // already respect the budget) carries the maximum contribution.
  if (kernel == DpKernel::kScalarOracle) {
    const auto [pool, frontier] = sweep(items, std::numeric_limits<double>::infinity(), budget);
    MCS_ENSURES(!frontier.empty(), "the empty set always fits the budget");
    return reconstruct(pool, frontier.back());
  }
  const ColumnsResult result = sweep_columns(items, std::numeric_limits<double>::infinity(),
                                             budget, common::Deadline{}, /*track_parents=*/true);
  MCS_ENSURES(!result.costs.empty(), "the empty set always fits the budget");
  return reconstruct_columns(result, result.costs.size() - 1);
}

}  // namespace mcs::auction::single_task
