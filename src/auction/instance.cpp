#include "auction/instance.hpp"

#include <algorithm>
#include <cmath>

#include "auction/columns.hpp"
#include "auction/coverage.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction {

namespace {
void check_pos(double p) { MCS_EXPECTS(p >= 0.0 && p <= 1.0, "PoS must lie in [0, 1]"); }
void check_requirement(double t) {
  MCS_EXPECTS(t > 0.0 && t < 1.0, "PoS requirement must lie in (0, 1)");
}
void check_cost(double c) { MCS_EXPECTS(c > 0.0, "costs must be strictly positive"); }
}  // namespace

// ---------------------------------------------------------------------------
// SingleTaskInstance
// ---------------------------------------------------------------------------

double SingleTaskInstance::requirement_contribution() const {
  return common::contribution_from_pos(requirement_pos);
}

double SingleTaskInstance::contribution(UserId user) const {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < bids.size(), "user id out of range");
  return common::contribution_from_pos(bids[static_cast<std::size_t>(user)].pos);
}

double SingleTaskInstance::contribution_of(const std::vector<UserId>& users) const {
  double total = 0.0;
  for (UserId user : users) {
    total += contribution(user);
  }
  return total;
}

double SingleTaskInstance::cost_of(const std::vector<UserId>& users) const {
  double total = 0.0;
  for (UserId user : users) {
    MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < bids.size(), "user id out of range");
    total += bids[static_cast<std::size_t>(user)].cost;
  }
  return total;
}

bool SingleTaskInstance::covers(const std::vector<UserId>& users) const {
  coverage::Amount total = 0;
  for (UserId user : users) {
    total = coverage::add(total, coverage::quantize(contribution(user)));
  }
  return total >= coverage::threshold(requirement_contribution());
}

bool SingleTaskInstance::is_feasible() const {
  coverage::Amount total = 0;
  for (const SingleTaskBid& bid : bids) {
    total = coverage::add(total, coverage::quantize(common::contribution_from_pos(bid.pos)));
  }
  return total >= coverage::threshold(requirement_contribution());
}

BidColumns SingleTaskInstance::make_columns() const {
  return BidColumns::from_single_task(*this);
}

void SingleTaskInstance::validate() const {
  check_requirement(requirement_pos);
  for (const auto& bid : bids) {
    check_cost(bid.cost);
    check_pos(bid.pos);
  }
}

SingleTaskInstance SingleTaskInstance::with_declared_pos(UserId user, double declared_pos) const {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < bids.size(), "user id out of range");
  check_pos(declared_pos);
  SingleTaskInstance copy = *this;
  copy.bids[static_cast<std::size_t>(user)].pos = declared_pos;
  return copy;
}

SingleTaskInstance SingleTaskInstance::with_declared_contribution(UserId user,
                                                                  double declared_q) const {
  return with_declared_pos(user, common::pos_from_contribution(declared_q));
}

SingleTaskInstance SingleTaskInstance::without_user(UserId user) const {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < bids.size(), "user id out of range");
  SingleTaskInstance copy = *this;
  copy.bids.erase(copy.bids.begin() + user);
  return copy;
}

// ---------------------------------------------------------------------------
// MultiTaskUserBid
// ---------------------------------------------------------------------------

double MultiTaskUserBid::pos_for(TaskIndex task) const {
  const auto it = std::lower_bound(tasks.begin(), tasks.end(), task);
  if (it == tasks.end() || *it != task) {
    return 0.0;
  }
  return pos[static_cast<std::size_t>(it - tasks.begin())];
}

double MultiTaskUserBid::contribution_for(TaskIndex task) const {
  return common::contribution_from_pos(pos_for(task));
}

double MultiTaskUserBid::total_contribution() const {
  double total = 0.0;
  for (double p : pos) {
    total += common::contribution_from_pos(p);
  }
  return total;
}

double MultiTaskUserBid::any_success_probability() const {
  // 1 - Π (1 - p_j) computed in log space: Σ q_j = -ln Π (1 - p_j).
  return common::pos_from_contribution(total_contribution());
}

void MultiTaskUserBid::validate(std::size_t num_tasks) const {
  check_cost(cost);
  MCS_EXPECTS(tasks.size() == pos.size(), "task set and PoS arrays must be aligned");
  MCS_EXPECTS(!tasks.empty(), "single-minded users must demand at least one task");
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const TaskIndex task = tasks[k];
    MCS_EXPECTS(task >= 0 && static_cast<std::size_t>(task) < num_tasks,
                "task index out of range");
    if (k > 0) {
      MCS_EXPECTS(tasks[k - 1] < task, "task sets must be strictly ascending");
    }
    check_pos(pos[k]);
  }
}

// ---------------------------------------------------------------------------
// MultiTaskInstance
// ---------------------------------------------------------------------------

std::vector<double> MultiTaskInstance::requirement_contributions() const {
  std::vector<double> q(requirement_pos.size());
  for (std::size_t j = 0; j < requirement_pos.size(); ++j) {
    q[j] = common::contribution_from_pos(requirement_pos[j]);
  }
  return q;
}

double MultiTaskInstance::achieved_contribution(const std::vector<UserId>& winners,
                                                TaskIndex task) const {
  MCS_EXPECTS(task >= 0 && static_cast<std::size_t>(task) < requirement_pos.size(),
              "task index out of range");
  double total = 0.0;
  for (UserId user : winners) {
    MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < users.size(),
                "user id out of range");
    total += users[static_cast<std::size_t>(user)].contribution_for(task);
  }
  return total;
}

double MultiTaskInstance::achieved_pos(const std::vector<UserId>& winners, TaskIndex task) const {
  return common::pos_from_contribution(achieved_contribution(winners, task));
}

bool MultiTaskInstance::covers(const std::vector<UserId>& winners) const {
  const auto requirements = requirement_contributions();
  for (std::size_t j = 0; j < requirements.size(); ++j) {
    if (!common::approx_ge(achieved_contribution(winners, static_cast<TaskIndex>(j)),
                           requirements[j])) {
      return false;
    }
  }
  return true;
}

bool MultiTaskInstance::is_feasible() const {
  std::vector<UserId> everyone(users.size());
  for (std::size_t k = 0; k < users.size(); ++k) {
    everyone[k] = static_cast<UserId>(k);
  }
  return covers(everyone);
}

double MultiTaskInstance::cost_of(const std::vector<UserId>& users_subset) const {
  double total = 0.0;
  for (UserId user : users_subset) {
    MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < users.size(),
                "user id out of range");
    total += users[static_cast<std::size_t>(user)].cost;
  }
  return total;
}

void MultiTaskInstance::validate_requirements() const {
  for (double t : requirement_pos) {
    check_requirement(t);
  }
}

void MultiTaskInstance::validate() const {
  validate_requirements();
  for (const auto& user : users) {
    user.validate(requirement_pos.size());
  }
}

MultiTaskInstance MultiTaskInstance::with_declared_total_contribution(
    UserId user, double declared_total_q) const {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < users.size(), "user id out of range");
  MCS_EXPECTS(declared_total_q >= 0.0, "declared contribution must be non-negative");
  MultiTaskInstance copy = *this;
  auto& bid = copy.users[static_cast<std::size_t>(user)];
  const double current = bid.total_contribution();
  if (current <= 0.0) {
    // A user with zero true contribution declares uniformly over her tasks.
    const double share = declared_total_q / static_cast<double>(bid.tasks.size());
    for (double& p : bid.pos) {
      p = common::pos_from_contribution(share);
    }
    return copy;
  }
  const double scale = declared_total_q / current;
  for (double& p : bid.pos) {
    p = common::pos_from_contribution(common::contribution_from_pos(p) * scale);
  }
  return copy;
}

MultiTaskInstance MultiTaskInstance::without_user(UserId user) const {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < users.size(), "user id out of range");
  MultiTaskInstance copy = *this;
  copy.users.erase(copy.users.begin() + user);
  return copy;
}

}  // namespace mcs::auction
