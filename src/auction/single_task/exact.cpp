#include "auction/single_task/exact.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "auction/coverage.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/check.hpp"

namespace mcs::auction::single_task {

namespace {

struct SearchItem {
  UserId user = 0;
  double cost = 0.0;
  coverage::Amount amount = 0;  ///< quantized contribution (auction/coverage.hpp)
};

class BranchAndBound {
 public:
  BranchAndBound(std::vector<SearchItem> items, coverage::Amount threshold,
                 std::size_t node_budget)
      : items_(std::move(items)), threshold_(threshold), node_budget_(node_budget) {}

  void seed_incumbent(double cost, std::vector<UserId> winners) {
    best_cost_ = cost;
    best_set_ = std::move(winners);
  }

  void run() { search(0, 0.0, 0); }

  double best_cost() const { return best_cost_; }
  const std::vector<UserId>& best_set() const { return best_set_; }
  bool proven_optimal() const { return nodes_ < node_budget_; }
  std::size_t nodes() const { return nodes_; }

 private:
  /// LP-relaxation lower bound: cheapest fractional fill of the residual
  /// threshold using the density-sorted suffix starting at `index`.
  /// +infinity when the suffix cannot cover the residual even fully taken.
  double fractional_bound(std::size_t index, coverage::Amount covered) const {
    coverage::Amount residual = threshold_ - covered;
    double bound = 0.0;
    for (std::size_t k = index; k < items_.size(); ++k) {
      const auto& item = items_[k];
      if (item.amount >= residual) {
        return bound + item.cost * (static_cast<double>(residual) /
                                    static_cast<double>(item.amount));
      }
      bound += item.cost;
      residual -= item.amount;
    }
    return std::numeric_limits<double>::infinity();
  }

  void search(std::size_t index, double cost, coverage::Amount covered) {
    if (nodes_ >= node_budget_) {
      return;
    }
    ++nodes_;
    if (covered >= threshold_) {
      if (cost < best_cost_) {
        best_cost_ = cost;
        best_set_ = current_;
      }
      return;
    }
    if (index >= items_.size()) {
      return;
    }
    if (cost + fractional_bound(index, covered) >= best_cost_) {
      return;
    }
    // Include-first: the density order makes early inclusions likely optimal,
    // tightening the incumbent quickly.
    current_.push_back(items_[index].user);
    search(index + 1, cost + items_[index].cost, coverage::add(covered, items_[index].amount));
    current_.pop_back();
    search(index + 1, cost, covered);
  }

  std::vector<SearchItem> items_;
  coverage::Amount threshold_;
  std::size_t node_budget_;
  std::size_t nodes_ = 0;
  double best_cost_ = std::numeric_limits<double>::infinity();
  std::vector<UserId> best_set_;
  std::vector<UserId> current_;
};

}  // namespace

ExactResult solve_exact(const SingleTaskInstance& instance, const ExactOptions& options) {
  instance.validate();
  ExactResult result;
  if (!instance.is_feasible()) {
    return result;
  }

  std::vector<SearchItem> items;
  items.reserve(instance.num_users());
  for (std::size_t k = 0; k < instance.num_users(); ++k) {
    const coverage::Amount amount =
        coverage::quantize(instance.contribution(static_cast<UserId>(k)));
    if (amount == 0) {
      continue;  // positive cost, zero contribution: never part of an optimum
    }
    items.push_back({static_cast<UserId>(k), instance.bids[k].cost, amount});
  }
  std::sort(items.begin(), items.end(), [](const SearchItem& a, const SearchItem& b) {
    const double da = static_cast<double>(a.amount) / a.cost;
    const double db = static_cast<double>(b.amount) / b.cost;
    if (da != db) {
      return da > db;
    }
    return a.user < b.user;
  });

  BranchAndBound solver(std::move(items),
                        coverage::threshold(instance.requirement_contribution()),
                        options.node_budget);
  const Allocation warm_start = solve_min_greedy(instance);
  MCS_ENSURES(warm_start.feasible, "warm start must exist for a feasible instance");
  solver.seed_incumbent(warm_start.total_cost, warm_start.winners);
  solver.run();

  result.allocation.feasible = true;
  result.allocation.winners = solver.best_set();
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = instance.cost_of(result.allocation.winners);
  result.proven_optimal = solver.proven_optimal();
  result.nodes_explored = solver.nodes();
  return result;
}

}  // namespace mcs::auction::single_task
