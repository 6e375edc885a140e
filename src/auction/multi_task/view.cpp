#include "auction/multi_task/view.hpp"

#include "auction/multi_task/gain.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::multi_task {

double MultiTaskView::total_contribution(UserId user) const {
  double total = 0.0;
  for (double q : user_contributions(user)) {
    total += q;
  }
  return total;
}

double MultiTaskView::cost_of(const std::vector<UserId>& users) const {
  double total = 0.0;
  for (UserId user : users) {
    total += costs[static_cast<std::size_t>(user)];
  }
  return total;
}

MultiTaskView MultiTaskView::from_instance(const MultiTaskInstance& instance) {
  instance.validate();
  MultiTaskView view;
  const std::size_t n = instance.num_users();
  const auto requirements = instance.requirement_contributions();
  view.requirements.assign(requirements.begin(), requirements.end());
  view.offsets.reserve(n + 1);
  view.costs.reserve(n);
  std::size_t nnz = 0;
  for (const auto& user : instance.users) {
    nnz += user.tasks.size();
  }
  view.tasks.reserve(nnz);
  view.contributions.reserve(nnz);
  view.offsets.push_back(0);
  for (const auto& user : instance.users) {
    view.costs.push_back(user.cost);
    for (std::size_t k = 0; k < user.tasks.size(); ++k) {
      view.tasks.push_back(user.tasks[k]);
      view.contributions.push_back(common::contribution_from_pos(user.pos[k]));
    }
    view.offsets.push_back(view.tasks.size());
  }
  view.initial_effective.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    view.initial_effective.push_back(
        effective_contribution(view.user_tasks(static_cast<UserId>(i)),
                               view.user_contributions(static_cast<UserId>(i)),
                               view.requirements));
  }
  return view;
}

ViewOverlay ViewOverlay::with_declared_total_contribution(const MultiTaskView& view, UserId user,
                                                          double declared_total_q) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < view.num_users(),
              "user id out of range");
  MCS_EXPECTS(declared_total_q >= 0.0, "declared contribution must be non-negative");
  ViewOverlay overlay;
  overlay.overridden_user = user;
  const auto original = view.user_contributions(user);
  overlay.overridden_contributions.reserve(original.size());
  const double current = view.total_contribution(user);
  if (current <= 0.0) {
    // A user with zero true contribution declares uniformly over her tasks.
    const double share = declared_total_q / static_cast<double>(original.size());
    const double q = common::contribution_from_pos(common::pos_from_contribution(share));
    overlay.overridden_contributions.assign(original.size(), q);
    return overlay;
  }
  const double scale = declared_total_q / current;
  for (double q : original) {
    overlay.overridden_contributions.push_back(
        common::contribution_from_pos(common::pos_from_contribution(q * scale)));
  }
  return overlay;
}

}  // namespace mcs::auction::multi_task
