#include "auction/types.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace mcs::auction {

bool Allocation::contains(UserId user) const {
  return std::binary_search(winners.begin(), winners.end(), user);
}

const WinnerReward& MechanismOutcome::reward_of(UserId user) const {
  for (const auto& reward : rewards) {
    if (reward.user == user) {
      return reward;
    }
  }
  throw common::PreconditionError("user is not a winner of this outcome");
}

std::size_t MechanismConfig::reward_worker_budget() const {
  return reward_workers > 0 ? reward_workers : common::default_worker_count();
}

}  // namespace mcs::auction
