#include "service/shard.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::service {

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

ShardMap::ShardMap(std::size_t shard_count)
    : ShardMap(shard_count, ShardPolicy::kCellModulo, 0, 0) {}

ShardMap::ShardMap(std::size_t shard_count, ShardPolicy policy, std::int32_t rows,
                   std::int32_t cols)
    : shard_count_(shard_count), policy_(policy), rows_(rows), cols_(cols) {
  MCS_EXPECTS(shard_count >= 1, "shard map needs at least one shard");
}

ShardMap ShardMap::row_bands(const geo::GridMap& grid, std::size_t shard_count) {
  MCS_EXPECTS(shard_count >= 1 && shard_count <= static_cast<std::size_t>(grid.rows()),
              "row-band sharding needs 1 <= shards <= grid rows");
  return ShardMap(shard_count, ShardPolicy::kRowBands, grid.rows(), grid.cols());
}

std::size_t ShardMap::shard_of(geo::CellId cell) const {
  MCS_EXPECTS(cell >= 0, "shard_of requires a valid cell id");
  switch (policy_) {
    case ShardPolicy::kCellModulo:
      return static_cast<std::size_t>(cell) % shard_count_;
    case ShardPolicy::kRowBands: {
      const auto row = static_cast<std::size_t>(cell / cols_);
      MCS_EXPECTS(row < static_cast<std::size_t>(rows_), "cell id outside the sharded grid");
      return row * shard_count_ / static_cast<std::size_t>(rows_);
    }
  }
  throw common::PreconditionError("unknown shard policy");
}

// ---------------------------------------------------------------------------
// partition_round
// ---------------------------------------------------------------------------

RoundPartition partition_round(const GeoRound& round, const ShardMap& map) {
  const auto& instance = round.instance;
  const std::size_t num_tasks = instance.num_tasks();
  MCS_EXPECTS(round.task_cells.size() == num_tasks,
              "GeoRound task_cells must align with the instance's tasks");

  RoundPartition partition;

  // Tasks first: every task lands in exactly one shard, and slices keep
  // tasks in ascending global order so global→local index maps are monotone
  // (a user's ascending task list stays ascending after remapping).
  std::vector<std::size_t> task_shard(num_tasks);
  std::vector<std::size_t> slice_of(map.shard_count(), static_cast<std::size_t>(-1));
  std::vector<auction::TaskIndex> local_task(num_tasks, -1);
  for (std::size_t j = 0; j < num_tasks; ++j) {
    task_shard[j] = map.shard_of(round.task_cells[j]);
  }
  for (std::size_t shard = 0; shard < map.shard_count(); ++shard) {
    bool owns_task = false;
    for (std::size_t j = 0; j < num_tasks; ++j) {
      owns_task = owns_task || task_shard[j] == shard;
    }
    if (!owns_task) {
      continue;
    }
    slice_of[shard] = partition.shards.size();
    ShardSlice slice;
    slice.shard = shard;
    partition.shards.push_back(std::move(slice));
  }
  for (std::size_t j = 0; j < num_tasks; ++j) {
    auto& slice = partition.shards[slice_of[task_shard[j]]];
    local_task[j] = static_cast<auction::TaskIndex>(slice.global_tasks.size());
    slice.global_tasks.push_back(static_cast<auction::TaskIndex>(j));
    slice.instance.requirement_pos.push_back(instance.requirement_pos[j]);
  }

  // Users second, in ascending global id order, so each slice's local user
  // order preserves global order and within-shard lowest-id tie-breaks match
  // the flat run's.
  struct ShardWeight {
    std::size_t shard = 0;
    double contribution = 0.0;
  };
  std::vector<ShardWeight> touched;  // reused across users; |task set| is small
  for (std::size_t i = 0; i < instance.num_users(); ++i) {
    const auto& bid = instance.users[i];
    const auto user = static_cast<auction::UserId>(i);
    if (bid.tasks.empty()) {
      partition.unassigned_users.push_back(user);
      continue;
    }
    touched.clear();
    for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
      const std::size_t shard = task_shard[static_cast<std::size_t>(bid.tasks[k])];
      const double q = common::contribution_from_pos(bid.pos[k]);
      auto it = std::find_if(touched.begin(), touched.end(),
                             [shard](const ShardWeight& w) { return w.shard == shard; });
      if (it == touched.end()) {
        touched.push_back({shard, q});
      } else {
        it->contribution += q;
      }
    }
    // Straddler protocol: owner = largest declared-contribution share, ties
    // toward the lowest shard id (strict > keeps the first — and therefore
    // lowest-id — of any later equal-weight shard from taking over after the
    // sort below).
    std::sort(touched.begin(), touched.end(),
              [](const ShardWeight& a, const ShardWeight& b) { return a.shard < b.shard; });
    std::size_t owner = touched.front().shard;
    double best = touched.front().contribution;
    for (std::size_t k = 1; k < touched.size(); ++k) {
      if (touched[k].contribution > best) {
        best = touched[k].contribution;
        owner = touched[k].shard;
      }
    }
    if (touched.size() > 1) {
      partition.straddlers.push_back(user);
    }

    auto& slice = partition.shards[slice_of[owner]];
    auction::MultiTaskUserBid local;
    local.cost = bid.cost;
    for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
      const auto task = static_cast<std::size_t>(bid.tasks[k]);
      if (task_shard[task] == owner) {
        local.tasks.push_back(local_task[task]);
        local.pos.push_back(bid.pos[k]);
      } else {
        ++partition.dropped_task_entries;
      }
    }
    slice.instance.users.push_back(std::move(local));
    slice.global_users.push_back(user);
  }
  return partition;
}

// ---------------------------------------------------------------------------
// merge_outcomes
// ---------------------------------------------------------------------------

bool slot_dead(const auction::AuctionOutcome& slot) {
  return slot.status == auction::AuctionStatus::kFailed ||
         slot.status == auction::AuctionStatus::kTimedOut;
}

namespace {

/// Winners of every shard slot mapped to global ids and sorted ascending —
/// the flat allocation's documented order.
std::vector<auction::UserId> merged_winners(const RoundPartition& partition,
                                            const std::vector<auction::AuctionOutcome>& slots) {
  std::vector<auction::UserId> winners;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto& slice = partition.shards[s];
    for (auction::UserId local : slots[s].outcome.allocation.winners) {
      winners.push_back(slice.global_users[static_cast<std::size_t>(local)]);
    }
  }
  std::sort(winners.begin(), winners.end());
  return winners;
}

/// Every dead shard's error, "shard <id>: <error>" joined with "; " in shard
/// order — with a single dead shard this is exactly the pre-aggregation
/// string, so journaled errors from older builds stay comparable.
std::string aggregate_dead_errors(const RoundPartition& partition,
                                  const std::vector<auction::AuctionOutcome>& slots) {
  std::string error;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!slot_dead(slots[s])) {
      continue;
    }
    if (!error.empty()) {
      error += "; ";
    }
    error += "shard " + std::to_string(partition.shards[s].shard) + ": " + slots[s].error;
  }
  return error;
}

}  // namespace

auction::AuctionOutcome merge_outcomes(const auction::MultiTaskInstance& flat,
                                       const RoundPartition& partition,
                                       const std::vector<auction::AuctionOutcome>& slots,
                                       bool partial_coverage, MergePolicy policy) {
  MCS_EXPECTS(slots.size() == partition.shards.size(),
              "merge_outcomes needs one slot per partition shard");
  auction::AuctionOutcome merged;

  bool any_failed = false;
  std::size_t dead_shards = 0;
  for (const auto& slot : slots) {
    any_failed = any_failed || slot.status == auction::AuctionStatus::kFailed;
    if (slot_dead(slot)) {
      ++dead_shards;
    }
  }

  // Poisoned round: kFailed beats kTimedOut (a malformed shard instance is a
  // caller bug worth surfacing over a blown deadline) and the error carries
  // EVERY dead shard in shard order — the full blast radius, not just the
  // first casualty. kDegradedMerge lands here too when no shard survived.
  if (dead_shards > 0 &&
      (policy == MergePolicy::kPoisonRound || dead_shards == slots.size())) {
    merged.status = any_failed ? auction::AuctionStatus::kFailed
                               : auction::AuctionStatus::kTimedOut;
    merged.error = aggregate_dead_errors(partition, slots);
    return merged;
  }

  // Telemetry totals merge in shard-index order — deterministic whatever the
  // engine's scheduling; timings are per-shard sums, not the flat run's.
  // Dead slots contribute whatever their partial run recorded.
  for (const auto& slot : slots) {
    merged.outcome.telemetry += slot.outcome.telemetry;
  }

  if (dead_shards > 0) {
    // kDegradedMerge with at least one survivor: salvage the surviving
    // shards. The shard is the unit of all-or-nothing — a feasible shard's
    // winners and critical-bid rewards are shard-local, so they stand
    // unchanged; an infeasible survivor follows the flat partial_coverage
    // rule (report its partial winners, pay nobody); a dead shard's entire
    // task slate is uncovered.
    merged.outcome.degraded = true;
    merged.outcome.allocation.feasible = false;
    merged.error = aggregate_dead_errors(partition, slots);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const auto& slice = partition.shards[s];
      if (slot_dead(slots[s])) {
        merged.outcome.uncovered_tasks.insert(merged.outcome.uncovered_tasks.end(),
                                              slice.global_tasks.begin(),
                                              slice.global_tasks.end());
        continue;
      }
      const bool feasible = slots[s].outcome.allocation.feasible;
      if (feasible || partial_coverage) {
        for (auction::UserId local : slots[s].outcome.allocation.winners) {
          merged.outcome.allocation.winners.push_back(
              slice.global_users[static_cast<std::size_t>(local)]);
        }
      }
      if (!feasible) {
        if (partial_coverage) {
          for (auction::TaskIndex local : slots[s].outcome.uncovered_tasks) {
            merged.outcome.uncovered_tasks.push_back(
                slice.global_tasks[static_cast<std::size_t>(local)]);
          }
        } else {
          // All-or-nothing shard that fell short: nothing committed, so the
          // whole slice counts as uncovered.
          merged.outcome.uncovered_tasks.insert(merged.outcome.uncovered_tasks.end(),
                                                slice.global_tasks.begin(),
                                                slice.global_tasks.end());
        }
        continue;
      }
      for (const auto& reward : slots[s].outcome.rewards) {
        auction::WinnerReward remapped = reward;
        remapped.user = slice.global_users[static_cast<std::size_t>(reward.user)];
        merged.outcome.rewards.push_back(remapped);
      }
    }
    std::sort(merged.outcome.allocation.winners.begin(),
              merged.outcome.allocation.winners.end());
    std::sort(merged.outcome.uncovered_tasks.begin(), merged.outcome.uncovered_tasks.end());
    std::sort(merged.outcome.rewards.begin(), merged.outcome.rewards.end(),
              [](const auction::WinnerReward& a, const auction::WinnerReward& b) {
                return a.user < b.user;
              });
    merged.outcome.allocation.total_cost =
        merged.outcome.allocation.winners.empty()
            ? 0.0
            : flat.cost_of(merged.outcome.allocation.winners);
    merged.status = auction::AuctionStatus::kDegraded;
    if (merged.outcome.telemetry.enabled) {
      merged.outcome.telemetry.degraded_events =
          std::max<std::uint64_t>(merged.outcome.telemetry.degraded_events, 1);
    }
    return merged;
  }

  bool all_feasible = true;
  bool any_degraded = false;
  for (const auto& slot : slots) {
    all_feasible = all_feasible && slot.outcome.allocation.feasible;
    any_degraded = any_degraded || slot.outcome.degraded;
  }

  if (all_feasible) {
    merged.outcome.allocation.feasible = true;
    merged.outcome.allocation.winners = merged_winners(partition, slots);
    // Same summation, same (ascending-id) order as the flat
    // MultiTaskView::cost_of — bit-identical, not merely close.
    merged.outcome.allocation.total_cost = flat.cost_of(merged.outcome.allocation.winners);
    merged.outcome.rewards.reserve(merged.outcome.allocation.winners.size());
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const auto& slice = partition.shards[s];
      for (const auto& reward : slots[s].outcome.rewards) {
        auction::WinnerReward remapped = reward;
        remapped.user = slice.global_users[static_cast<std::size_t>(reward.user)];
        merged.outcome.rewards.push_back(remapped);
      }
    }
    std::sort(merged.outcome.rewards.begin(), merged.outcome.rewards.end(),
              [](const auction::WinnerReward& a, const auction::WinnerReward& b) {
                return a.user < b.user;
              });
    merged.outcome.degraded = any_degraded;
  } else if (partial_coverage) {
    // Flat keep_partial semantics: report the partial winner set and the
    // uncovered tasks, pay nobody.
    merged.outcome.allocation.feasible = false;
    merged.outcome.allocation.winners = merged_winners(partition, slots);
    merged.outcome.allocation.total_cost =
        merged.outcome.allocation.winners.empty()
            ? 0.0
            : flat.cost_of(merged.outcome.allocation.winners);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const auto& slice = partition.shards[s];
      for (auction::TaskIndex local : slots[s].outcome.uncovered_tasks) {
        merged.outcome.uncovered_tasks.push_back(
            slice.global_tasks[static_cast<std::size_t>(local)]);
      }
    }
    std::sort(merged.outcome.uncovered_tasks.begin(), merged.outcome.uncovered_tasks.end());
    merged.outcome.degraded = !merged.outcome.allocation.winners.empty() || any_degraded;
  } else {
    // Flat all-or-nothing semantics: an infeasible instance yields the
    // default infeasible outcome — the feasible shards' winners are
    // discarded, exactly as the flat greedy would never have committed them.
    merged.outcome.allocation = auction::Allocation{};
    merged.outcome.degraded = false;
  }

  merged.status = merged.outcome.degraded ? auction::AuctionStatus::kDegraded
                                          : auction::AuctionStatus::kOk;
  if (merged.outcome.telemetry.enabled && merged.outcome.degraded) {
    // Re-derive the round-level degraded_events count the flat run would
    // report (one per degraded mechanism run, not one per degraded shard).
    merged.outcome.telemetry.degraded_events =
        std::max<std::uint64_t>(merged.outcome.telemetry.degraded_events, 1);
  }
  return merged;
}

}  // namespace mcs::service
