// Flat, cache-friendly view of a MultiTaskInstance plus lightweight overlays
// — the data layer of the lazy-greedy hot path.
//
// MultiTaskView stores the instance in CSR form (ligra-style): one
// contiguous task-index array, one parallel contribution array (q = -ln(1-p)
// precomputed once), and per-user offsets into both, next to flat cost and
// requirement arrays. contribution_from_pos is deterministic, so every
// number a greedy run reads from the view is bit-identical to what the
// nested-layout run computes on the fly.
//
// ViewOverlay answers the reward scheme's probe shape "user i declares total
// contribution x" without the O(n·t) instance copy (and its ~2n vector
// allocations) that with_declared_total_contribution pays per probe. An
// overlay is O(|S_i|) to build, and a greedy run reads through it with one
// id compare. The override replicates the copied path's q → PoS → q round
// trip exactly, so masked re-solves stay bit-identical to re-solves on a
// materialized copy (asserted by tests/mt_lazy_equivalence_test.cpp). The
// other probe shape, "without user i", needs no overlay: it resumes from the
// recorded main run (greedy.hpp).
#pragma once

#include <span>
#include <vector>

#include "auction/instance.hpp"
#include "common/aligned.hpp"

namespace mcs::auction::multi_task {

/// Sentinel for "no user" in overlay slots.
inline constexpr UserId kNoUser = -1;

struct MultiTaskView {
  /// offsets[i]..offsets[i+1] delimit user i's slice of tasks/contributions.
  std::vector<std::size_t> offsets;
  std::vector<TaskIndex> tasks;  ///< concatenated task sets, ascending per user
  /// The double columns live in 64-byte-aligned storage (common/aligned.hpp)
  /// so the gain loops stream cache-line-aligned 8-byte lanes; alignment
  /// never changes a value, so the bit-identity contracts are untouched.
  common::aligned_vector<double> contributions;      ///< q_i^j aligned with `tasks`
  common::aligned_vector<double> costs;              ///< c_i per user
  common::aligned_vector<double> requirements;       ///< Q_j per task (contribution domain)
  /// Each user's effective contribution against the untouched requirements —
  /// the first-round ratio numerators, precomputed so a masked probe's heap
  /// build is O(n) instead of O(n·t).
  common::aligned_vector<double> initial_effective;

  std::size_t num_users() const { return costs.size(); }
  std::size_t num_tasks() const { return requirements.size(); }

  /// Whole-column spans — the SoA surface the mechanisms and benches read.
  std::span<const double> cost_span() const { return {costs.data(), costs.size()}; }
  std::span<const double> contribution_span() const {
    return {contributions.data(), contributions.size()};
  }
  std::span<const double> requirement_span() const {
    return {requirements.data(), requirements.size()};
  }

  std::span<const TaskIndex> user_tasks(UserId user) const {
    const auto i = static_cast<std::size_t>(user);
    return {tasks.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  std::span<const double> user_contributions(UserId user) const {
    const auto i = static_cast<std::size_t>(user);
    return {contributions.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  /// Σ_j q_i^j in the same summation order as
  /// MultiTaskUserBid::total_contribution.
  double total_contribution(UserId user) const;
  /// Σ c_i over a user set, same order as MultiTaskInstance::cost_of.
  double cost_of(const std::vector<UserId>& users) const;

  /// Builds the view, validating the instance once. A view is trusted
  /// because the code that built it validated its input first: this
  /// function, or the sharded round's column partition
  /// (service::partition_views), which runs the same checks and writes
  /// views equal field for field to this function's. The mechanism and
  /// every per-probe solve_greedy call on a view skip re-validation.
  static MultiTaskView from_instance(const MultiTaskInstance& instance);
};

/// An overridden reading of a MultiTaskView: at most one user's contribution
/// vector is replaced; that is all the critical-bid probes ever need.
struct ViewOverlay {
  UserId overridden_user = kNoUser;
  /// Replacement contributions for overridden_user, aligned with her CSR
  /// slice; empty unless overridden_user is set.
  std::vector<double> overridden_contributions;

  /// The user's contribution array under this overlay.
  std::span<const double> contributions_of(const MultiTaskView& view, UserId user) const {
    if (user == overridden_user) {
      return overridden_contributions;
    }
    return view.user_contributions(user);
  }

  static ViewOverlay none() { return {}; }
  /// Mirrors MultiTaskInstance::with_declared_total_contribution bit for bit,
  /// including the contribution → PoS → contribution round trip the copied
  /// path performs (scaling happens in contribution space, storage in PoS
  /// space) and its uniform-share branch for zero-contribution users.
  static ViewOverlay with_declared_total_contribution(const MultiTaskView& view, UserId user,
                                                      double declared_total_q);
};

}  // namespace mcs::auction::multi_task
