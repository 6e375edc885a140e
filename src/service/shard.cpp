#include "service/shard.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>

#include "auction/multi_task/gain.hpp"
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
// partition_views / partition_round
// ---------------------------------------------------------------------------

namespace {

/// Users per partition chunk. Chunks are cut by user index alone, so the
/// chunking never depends on the pool; the output is ordered by global id
/// and does not depend on it either.
constexpr std::size_t kChunkUsers = 1024;

/// Owner value of an empty-task user: she is in no slice.
constexpr std::uint32_t kUnassigned = std::numeric_limits<std::uint32_t>::max();

/// One chunk's pass-1 tallies beyond the per-slice counts.
struct ChunkTally {
  std::size_t straddlers = 0;
  std::size_t unassigned = 0;
  std::size_t dropped = 0;
  std::exception_ptr error;  ///< the chunk's lowest-id invalid bid, if any
};

/// The straddler protocol over slice indices (slices ascend by shard id, so
/// the lowest slice is the lowest shard): the slice with the largest share
/// Σ q of the bid, each share summed in the bid's task order, ties to the
/// lowest slice. Each q is computed once, while summing its slice's share.
std::uint32_t straddler_owner(const auction::MultiTaskUserBid& bid,
                              const std::vector<std::uint32_t>& task_slice) {
  const auto slice_at = [&](std::size_t k) {
    return task_slice[static_cast<std::size_t>(bid.tasks[k])];
  };
  std::uint32_t owner = kUnassigned;
  double best = 0.0;
  for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
    const std::uint32_t slice = slice_at(k);
    bool seen = false;
    for (std::size_t e = 0; e < k && !seen; ++e) {
      seen = slice_at(e) == slice;
    }
    if (seen) {
      continue;
    }
    double share = 0.0;
    for (std::size_t e = k; e < bid.tasks.size(); ++e) {
      if (slice_at(e) == slice) {
        share += common::contribution_from_pos(bid.pos[e]);
      }
    }
    if (owner == kUnassigned || share > best || (share == best && slice < owner)) {
      owner = slice;
      best = share;
    }
  }
  return owner;
}

}  // namespace

RoundPartition partition_views(const GeoRound& round, const ShardMap& map,
                               common::ThreadPool& pool) {
  const auto& instance = round.instance;
  const std::size_t num_tasks = instance.num_tasks();
  MCS_EXPECTS(round.task_cells.size() == num_tasks,
              "GeoRound task_cells must align with the instance's tasks");
  instance.validate_requirements();

  RoundPartition partition;

  // Tasks first: every task lands in exactly one slice, and slices keep
  // tasks in ascending global order so global→local index maps are monotone
  // (a user's ascending task list stays ascending after remapping).
  std::vector<std::size_t> task_shard(num_tasks);
  std::vector<bool> owns_task(map.shard_count(), false);
  for (std::size_t j = 0; j < num_tasks; ++j) {
    task_shard[j] = map.shard_of(round.task_cells[j]);
    owns_task[task_shard[j]] = true;
  }
  std::vector<std::uint32_t> slice_of(map.shard_count(), kUnassigned);
  for (std::size_t shard = 0; shard < map.shard_count(); ++shard) {
    if (owns_task[shard]) {
      slice_of[shard] = static_cast<std::uint32_t>(partition.shards.size());
      partition.shards.emplace_back().shard = shard;
    }
  }
  std::vector<std::uint32_t> task_slice(num_tasks);
  std::vector<auction::TaskIndex> local_task(num_tasks);
  for (std::size_t j = 0; j < num_tasks; ++j) {
    task_slice[j] = slice_of[task_shard[j]];
    auto& slice = partition.shards[task_slice[j]];
    local_task[j] = static_cast<auction::TaskIndex>(slice.global_tasks.size());
    slice.global_tasks.push_back(static_cast<auction::TaskIndex>(j));
    slice.view.requirements.push_back(common::contribution_from_pos(instance.requirement_pos[j]));
  }

  // Pass 1: validate, pick owners, count users and kept entries per
  // (chunk, slice).
  const std::size_t n = instance.num_users();
  const std::size_t slices = partition.shards.size();
  const std::size_t chunks = (n + kChunkUsers - 1) / kChunkUsers;
  std::vector<std::uint32_t> owner(n);
  std::vector<std::size_t> user_cursor(chunks * slices, 0);
  std::vector<std::size_t> entry_cursor(chunks * slices, 0);
  std::vector<ChunkTally> tally(chunks);
  pool.for_each_index(
      chunks,
      [&](std::size_t c) {
        std::size_t* users = user_cursor.data() + c * slices;
        std::size_t* entries = entry_cursor.data() + c * slices;
        const std::size_t last = std::min(n, (c + 1) * kChunkUsers);
        for (std::size_t i = c * kChunkUsers; i < last; ++i) {
          const auto& bid = instance.users[i];
          if (bid.tasks.empty()) {
            owner[i] = kUnassigned;
            ++tally[c].unassigned;
            continue;
          }
          try {
            bid.validate(num_tasks);
          } catch (...) {
            tally[c].error = std::current_exception();
            return;  // later users of this chunk have higher ids
          }
          const std::uint32_t first = task_slice[static_cast<std::size_t>(bid.tasks[0])];
          const bool straddles = std::any_of(bid.tasks.begin(), bid.tasks.end(),
                                             [&](auction::TaskIndex task) {
                                               return task_slice[task] != first;
                                             });
          const std::uint32_t own = straddles ? straddler_owner(bid, task_slice) : first;
          const auto kept = static_cast<std::size_t>(
              std::count_if(bid.tasks.begin(), bid.tasks.end(), [&](auction::TaskIndex task) {
                return task_slice[task] == own;
              }));
          owner[i] = own;
          ++users[own];
          entries[own] += kept;
          if (straddles) {
            ++tally[c].straddlers;
            tally[c].dropped += bid.tasks.size() - kept;
          }
        }
      },
      pool.worker_count());
  for (const auto& chunk : tally) {
    if (chunk.error) {
      std::rethrow_exception(chunk.error);
    }
  }

  // Serial prefix sums in chunk order: each (chunk, slice) count becomes
  // that chunk's first write position in the slice, and each chunk's tallies
  // its first position in the straddler / unassigned lists.
  std::vector<std::size_t> straddler_cursor(chunks);
  std::vector<std::size_t> unassigned_cursor(chunks);
  std::size_t straddlers = 0;
  std::size_t unassigned = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    straddler_cursor[c] = straddlers;
    unassigned_cursor[c] = unassigned;
    straddlers += tally[c].straddlers;
    unassigned += tally[c].unassigned;
    partition.dropped_task_entries += tally[c].dropped;
  }
  std::vector<std::size_t> slice_users(slices, 0);
  std::vector<std::size_t> slice_entries(slices, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t s = 0; s < slices; ++s) {
      const std::size_t at = c * slices + s;
      const std::size_t chunk_users = user_cursor[at];
      const std::size_t chunk_entries = entry_cursor[at];
      user_cursor[at] = slice_users[s];
      entry_cursor[at] = slice_entries[s];
      slice_users[s] += chunk_users;
      slice_entries[s] += chunk_entries;
    }
  }
  partition.straddlers.resize(straddlers);
  partition.unassigned_users.resize(unassigned);
  // Sized here, not on the pool: every column then comes from this thread's
  // malloc arena, which the next round reuses, so peak RSS stays flat
  // instead of varying with which worker allocated which slice.
  for (std::size_t s = 0; s < slices; ++s) {
    auto& slice = partition.shards[s];
    slice.global_users.resize(slice_users[s]);
    slice.view.offsets.resize(slice_users[s] + 1);
    slice.view.costs.resize(slice_users[s]);
    slice.view.initial_effective.resize(slice_users[s]);
    slice.view.tasks.resize(slice_entries[s]);
    slice.view.contributions.resize(slice_entries[s]);
  }

  // Pass 2: scatter every user into her slice's columns at her chunk's
  // cursors. Every write lands on an index no other chunk writes.
  pool.for_each_index(
      chunks,
      [&](std::size_t c) {
        std::size_t* users = user_cursor.data() + c * slices;
        std::size_t* entries = entry_cursor.data() + c * slices;
        std::size_t next_straddler = straddler_cursor[c];
        std::size_t next_unassigned = unassigned_cursor[c];
        const std::size_t last = std::min(n, (c + 1) * kChunkUsers);
        for (std::size_t i = c * kChunkUsers; i < last; ++i) {
          const auto user = static_cast<auction::UserId>(i);
          const std::uint32_t own = owner[i];
          if (own == kUnassigned) {
            partition.unassigned_users[next_unassigned++] = user;
            continue;
          }
          const auto& bid = instance.users[i];
          auto& slice = partition.shards[own];
          auto& view = slice.view;
          const std::size_t u = users[own]++;
          const std::size_t begin = entries[own];
          std::size_t end = begin;
          for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
            const auto task = static_cast<std::size_t>(bid.tasks[k]);
            if (task_slice[task] == own) {
              view.tasks[end] = local_task[task];
              view.contributions[end] = common::contribution_from_pos(bid.pos[k]);
              ++end;
            }
          }
          entries[own] = end;
          if (end - begin < bid.tasks.size()) {
            partition.straddlers[next_straddler++] = user;
          }
          slice.global_users[u] = user;
          view.costs[u] = bid.cost;
          view.offsets[u + 1] = end;
          view.initial_effective[u] = auction::multi_task::effective_contribution(
              {view.tasks.data() + begin, end - begin},
              {view.contributions.data() + begin, end - begin}, view.requirements);
        }
      },
      pool.worker_count());
  return partition;
}

RoundPartition partition_round(const GeoRound& round, const ShardMap& map) {
  auto partition = partition_views(round, map, common::ThreadPool::shared());
  for (auto& slice : partition.shards) {
    auto& local = slice.instance;
    for (const auction::TaskIndex task : slice.global_tasks) {
      local.requirement_pos.push_back(
          round.instance.requirement_pos[static_cast<std::size_t>(task)]);
    }
    local.users.resize(slice.global_users.size());
    for (std::size_t u = 0; u < slice.global_users.size(); ++u) {
      const auto& bid = round.instance.users[static_cast<std::size_t>(slice.global_users[u])];
      auto& kept = local.users[u];
      const auto tasks = slice.view.user_tasks(static_cast<auction::UserId>(u));
      kept.cost = bid.cost;
      kept.tasks.assign(tasks.begin(), tasks.end());
      kept.pos.reserve(tasks.size());
      // Both task lists ascend in global order, so one forward walk over the
      // bid finds every kept entry's PoS.
      std::size_t k = 0;
      for (const auction::TaskIndex task : tasks) {
        const auction::TaskIndex global = slice.global_tasks[static_cast<std::size_t>(task)];
        while (bid.tasks[k] != global) {
          ++k;
        }
        kept.pos.push_back(bid.pos[k]);
      }
    }
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
