// Auction instances for the two settings of the paper.
//
// Single task (Section III-B): one task with PoS requirement T; each user
// declares a cost c_i (verified, per the paper's assumption) and a PoS p_i.
//
// Multi-task single-minded (Section III-C): t tasks with requirements T_j;
// each user declares a task set S_i, a per-task PoS p_i^j, and one cost c_i
// for performing the whole set.
//
// Both instances expose the log-domain view (q = -ln(1-p), Q = -ln(1-T))
// under which PoS constraints become additive covering constraints.
#pragma once

#include <vector>

#include "auction/types.hpp"

namespace mcs::auction {

struct BidColumns;

/// One user's declaration in the single-task auction.
struct SingleTaskBid {
  double cost = 0.0;  ///< c_i > 0 (verified by the platform)
  double pos = 0.0;   ///< declared p_i in [0, 1]
};

/// Single-task auction instance.
struct SingleTaskInstance {
  double requirement_pos = 0.0;  ///< T in (0, 1)
  std::vector<SingleTaskBid> bids;

  std::size_t num_users() const { return bids.size(); }

  /// Q = -ln(1 - T).
  double requirement_contribution() const;
  /// q_i = -ln(1 - p_i); +infinity when p_i = 1.
  double contribution(UserId user) const;
  /// Σ_i q_i over a user set.
  double contribution_of(const std::vector<UserId>& users) const;
  /// Σ_i c_i over a user set.
  double cost_of(const std::vector<UserId>& users) const;
  /// True when the user set meets the requirement (with tolerance).
  bool covers(const std::vector<UserId>& users) const;
  /// True when even selecting everyone meets the requirement.
  bool is_feasible() const;

  /// Flat SoA snapshot of the bids (cost[] and q[] columns, 64-byte
  /// aligned) — what the mechanism facade builds once per run and threads
  /// through winner determination and every critical-bid search. Stale after
  /// any mutation of `bids`; see auction/columns.hpp.
  BidColumns make_columns() const;

  /// Throws PreconditionError unless T ∈ (0,1), every cost > 0, and every
  /// PoS ∈ [0, 1].
  void validate() const;

  /// Copy with user `user`'s declared PoS replaced — the building block of
  /// critical-bid searches and misreport experiments.
  SingleTaskInstance with_declared_pos(UserId user, double declared_pos) const;
  /// Same, in the contribution domain.
  SingleTaskInstance with_declared_contribution(UserId user, double declared_q) const;
  /// Copy without user `user` (ids above shift down by one).
  SingleTaskInstance without_user(UserId user) const;
};

/// One user's declaration in the multi-task single-minded auction. `tasks`
/// and `pos` are parallel arrays; tasks are indices into the instance's task
/// list, strictly ascending.
struct MultiTaskUserBid {
  std::vector<TaskIndex> tasks;
  std::vector<double> pos;
  double cost = 0.0;

  /// Declared PoS for a task; 0 when the task is outside the set.
  double pos_for(TaskIndex task) const;
  /// Contribution q_i^j for a task; 0 when outside the set.
  double contribution_for(TaskIndex task) const;
  /// Σ_j q_i^j over the user's task set.
  double total_contribution() const;
  /// The user's overall success probability 1 - Π_j (1 - p_i^j): the chance
  /// she completes at least one of her tasks (what the EC reward pays on).
  double any_success_probability() const;

  /// Throws PreconditionError unless cost > 0 and the task set is non-empty,
  /// strictly ascending, inside [0, num_tasks), and aligned with a PoS array
  /// whose entries lie in [0, 1]. MultiTaskInstance::validate runs this per
  /// user, so both report the same messages.
  void validate(std::size_t num_tasks) const;
};

/// Multi-task single-minded auction instance.
struct MultiTaskInstance {
  std::vector<double> requirement_pos;  ///< T_j per task, each in (0, 1)
  std::vector<MultiTaskUserBid> users;

  std::size_t num_tasks() const { return requirement_pos.size(); }
  std::size_t num_users() const { return users.size(); }

  /// Q_j = -ln(1 - T_j) for every task.
  std::vector<double> requirement_contributions() const;
  /// Achieved PoS of `task` under a winner set: 1 - Π (1 - p_i^task).
  double achieved_pos(const std::vector<UserId>& winners, TaskIndex task) const;
  /// Total contribution Σ q_i^task accumulated on a task by a winner set.
  double achieved_contribution(const std::vector<UserId>& winners, TaskIndex task) const;
  /// True when every task requirement is met by the winner set (tolerance).
  bool covers(const std::vector<UserId>& winners) const;
  /// True when selecting everyone meets every requirement.
  bool is_feasible() const;
  double cost_of(const std::vector<UserId>& users_subset) const;

  /// Throws PreconditionError unless every T_j ∈ (0,1).
  void validate_requirements() const;
  /// validate_requirements(), then MultiTaskUserBid::validate for every user
  /// in id order: every cost > 0, every PoS ∈ [0, 1], and every task set is
  /// sorted, unique, in range, and aligned with its PoS array.
  void validate() const;

  /// Copy with one user's declared PoS vector scaled in contribution space
  /// so her total contribution becomes `declared_total_q` (direction of the
  /// vector preserved); used by misreport experiments.
  MultiTaskInstance with_declared_total_contribution(UserId user, double declared_total_q) const;
  /// Copy without user `user` (ids above shift down by one).
  MultiTaskInstance without_user(UserId user) const;
};

}  // namespace mcs::auction
