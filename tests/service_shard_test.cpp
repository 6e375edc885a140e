// Geo-shard partitioning and merging: every task and every (non-empty) user
// lands in exactly one shard, the straddler protocol's owner choice and
// tie-break are deterministic, and the sharded pipeline
// (partition → per-shard engine → merge) reproduces the flat mechanism
// BIT-identically on straddler-free instances — feasible, infeasible
// all-or-nothing, and partial-coverage rounds alike.
#include "service/shard.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "auction/engine.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "test_util.hpp"

namespace mcs::service {
namespace {

using auction::MultiTaskInstance;
using auction::MultiTaskUserBid;
using auction::TaskIndex;
using auction::UserId;

/// Random geo round with arbitrary task cells — straddlers happen freely.
GeoRound arbitrary_round(std::size_t n, std::size_t t, std::uint64_t seed) {
  GeoRound round;
  round.instance = test::random_multi_task(n, t, 0.5, seed);
  common::Rng rng(seed ^ 0xce11);
  round.task_cells.reserve(t);
  for (std::size_t j = 0; j < t; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(rng.uniform_int(0, 63)));
  }
  return round;
}

/// Residue-pure round: task j sits in cell j, and every user's task set is
/// drawn from ONE residue class mod `groups` — so for any shard count
/// dividing `groups`, all of a user's tasks share a shard and the round is
/// straddler-free under ShardMap(kCellModulo) by construction.
GeoRound residue_pure_round(std::size_t n, std::size_t t, std::size_t groups,
                            double requirement, std::uint64_t seed, double pos_hi = 0.5) {
  GeoRound round;
  round.instance.requirement_pos.assign(t, requirement);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    MultiTaskUserBid bid;
    bid.cost = rng.uniform(1.0, 10.0);
    const auto group = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(groups) - 1));
    for (std::size_t j = group; j < t; j += groups) {
      if (rng.uniform(0.0, 1.0) < 0.6) {
        bid.tasks.push_back(static_cast<TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.05, pos_hi));
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(static_cast<TaskIndex>(group));
      bid.pos.push_back(rng.uniform(0.05, pos_hi));
    }
    round.instance.users.push_back(std::move(bid));
  }
  round.task_cells.reserve(t);
  for (std::size_t j = 0; j < t; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  return round;
}

/// Runs the full sharded pipeline on a round and returns the merged slot.
auction::AuctionOutcome run_sharded(const GeoRound& round, const ShardMap& map,
                                    const auction::MechanismConfig& config,
                                    std::size_t workers = 0) {
  const auto partition = partition_round(round, map);
  std::vector<MultiTaskInstance> batch;
  batch.reserve(partition.shards.size());
  for (const auto& slice : partition.shards) {
    batch.push_back(slice.instance);
  }
  const auction::Engine engine(auction::EngineOptions{.workers = workers});
  const auto slots = engine.run_isolated(batch, config);
  return merge_outcomes(round.instance, partition, slots, config.multi_task.partial_coverage);
}

// ---------------------------------------------------------------------------
// Partition properties
// ---------------------------------------------------------------------------

class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperty, EveryTaskAndUserInExactlyOneShard) {
  const auto round = arbitrary_round(24, 8, GetParam());
  for (const std::size_t shard_count : {1u, 2u, 3u, 5u}) {
    const auto partition = partition_round(round, ShardMap(shard_count));

    std::vector<int> task_seen(round.instance.num_tasks(), 0);
    std::vector<int> user_seen(round.instance.num_users(), 0);
    for (const auto& slice : partition.shards) {
      ASSERT_EQ(slice.instance.num_tasks(), slice.global_tasks.size());
      ASSERT_EQ(slice.instance.num_users(), slice.global_users.size());
      EXPECT_TRUE(std::is_sorted(slice.global_tasks.begin(), slice.global_tasks.end()));
      EXPECT_TRUE(std::is_sorted(slice.global_users.begin(), slice.global_users.end()));
      for (std::size_t j = 0; j < slice.global_tasks.size(); ++j) {
        const auto task = static_cast<std::size_t>(slice.global_tasks[j]);
        ++task_seen[task];
        // The slice's requirement is the global task's, and the cell maps to
        // this shard.
        EXPECT_EQ(slice.instance.requirement_pos[j], round.instance.requirement_pos[task]);
        EXPECT_EQ(ShardMap(shard_count).shard_of(round.task_cells[task]), slice.shard);
      }
      for (std::size_t i = 0; i < slice.global_users.size(); ++i) {
        ++user_seen[static_cast<std::size_t>(slice.global_users[i])];
        const auto& local = slice.instance.users[i];
        const auto& global = round.instance.users[static_cast<std::size_t>(slice.global_users[i])];
        EXPECT_EQ(local.cost, global.cost);
        EXPECT_TRUE(std::is_sorted(local.tasks.begin(), local.tasks.end()));
        // Every local task entry is one of the user's global entries with the
        // same declared PoS.
        for (std::size_t k = 0; k < local.tasks.size(); ++k) {
          const auto global_task = slice.global_tasks[static_cast<std::size_t>(local.tasks[k])];
          EXPECT_EQ(local.pos[k], global.pos_for(global_task));
        }
      }
    }
    for (std::size_t j = 0; j < task_seen.size(); ++j) {
      EXPECT_EQ(task_seen[j], 1) << "task " << j << " at " << shard_count << " shards";
    }
    for (UserId user : partition.unassigned_users) {
      EXPECT_EQ(user_seen[static_cast<std::size_t>(user)], 0);
      EXPECT_TRUE(round.instance.users[static_cast<std::size_t>(user)].tasks.empty());
    }
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < user_seen.size(); ++i) {
      EXPECT_LE(user_seen[i], 1) << "user " << i;
      assigned += static_cast<std::size_t>(user_seen[i]);
    }
    EXPECT_EQ(assigned + partition.unassigned_users.size(), round.instance.num_users());

    // A straddler keeps her cost and loses only out-of-shard task entries;
    // dropped_task_entries accounts for every lost entry.
    std::size_t local_entries = 0;
    for (const auto& slice : partition.shards) {
      for (const auto& user : slice.instance.users) {
        local_entries += user.tasks.size();
      }
    }
    std::size_t global_entries = 0;
    for (const auto& user : round.instance.users) {
      global_entries += user.tasks.size();
    }
    EXPECT_EQ(local_entries + partition.dropped_task_entries, global_entries);
    if (shard_count == 1) {
      EXPECT_TRUE(partition.straddlers.empty());
      EXPECT_EQ(partition.dropped_task_entries, 0u);
    }
  }
}

TEST_P(PartitionProperty, PartitionIsAPureFunctionOfTheRound) {
  const auto round = arbitrary_round(20, 6, GetParam() ^ 0xdead);
  const ShardMap map(3);
  const auto a = partition_round(round, map);
  const auto b = partition_round(round, map);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  EXPECT_EQ(a.straddlers, b.straddlers);
  EXPECT_EQ(a.unassigned_users, b.unassigned_users);
  EXPECT_EQ(a.dropped_task_entries, b.dropped_task_entries);
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].shard, b.shards[s].shard);
    EXPECT_EQ(a.shards[s].global_tasks, b.shards[s].global_tasks);
    EXPECT_EQ(a.shards[s].global_users, b.shards[s].global_users);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty, ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Straddler protocol
// ---------------------------------------------------------------------------

TEST(StraddlerProtocol, OwnerIsTheLargestContributionShare) {
  // Two tasks in different shards (cells 0 and 1 under modulo-2); the user
  // declares more contribution on task 1, so shard 1 owns her.
  GeoRound round;
  round.instance.requirement_pos = {0.5, 0.5};
  round.task_cells = {0, 1};
  MultiTaskUserBid bid;
  bid.tasks = {0, 1};
  bid.pos = {0.2, 0.6};
  bid.cost = 3.0;
  round.instance.users.push_back(bid);

  const auto partition = partition_round(round, ShardMap(2));
  ASSERT_EQ(partition.straddlers, std::vector<UserId>{0});
  ASSERT_EQ(partition.shards.size(), 2u);
  EXPECT_TRUE(partition.shards[0].global_users.empty());
  ASSERT_EQ(partition.shards[1].global_users, std::vector<UserId>{0});
  // Her bid kept its full cost and only the in-shard task entry.
  const auto& local = partition.shards[1].instance.users[0];
  EXPECT_EQ(local.cost, 3.0);
  ASSERT_EQ(local.tasks.size(), 1u);
  EXPECT_EQ(local.pos[0], 0.6);
  EXPECT_EQ(partition.dropped_task_entries, 1u);
}

TEST(StraddlerProtocol, ExactTieGoesToTheLowestShardId) {
  GeoRound round;
  round.instance.requirement_pos = {0.5, 0.5};
  round.task_cells = {1, 2};  // shards 1 and 0 under modulo-2, in that order
  MultiTaskUserBid bid;
  bid.tasks = {0, 1};
  bid.pos = {0.4, 0.4};  // identical declared contribution on both shards
  bid.cost = 1.0;
  round.instance.users.push_back(bid);

  const auto partition = partition_round(round, ShardMap(2));
  ASSERT_EQ(partition.straddlers, std::vector<UserId>{0});
  // Shard 0 owns the tie even though the user's first-listed task is shard 1's.
  ASSERT_EQ(partition.shards[0].shard, 0u);
  EXPECT_EQ(partition.shards[0].global_users, std::vector<UserId>{0});
  EXPECT_TRUE(partition.shards[1].global_users.empty());
}

TEST(StraddlerProtocol, MisalignedTaskCellsAreRejected) {
  GeoRound round;
  round.instance = test::random_multi_task(4, 3, 0.5, 7);
  round.task_cells = {0, 1};  // one short
  EXPECT_THROW(partition_round(round, ShardMap(2)), common::PreconditionError);
}

// ---------------------------------------------------------------------------
// Column partition: partition_views ≡ the AoS partition on any pool
// ---------------------------------------------------------------------------

/// The serial array-of-structs partition the column pass replaced, kept as
/// its differential oracle: per-user vectors, q computed for every entry.
RoundPartition reference_partition(const GeoRound& round, const ShardMap& map) {
  const auto& instance = round.instance;
  RoundPartition partition;
  std::vector<std::size_t> task_shard(instance.num_tasks());
  std::vector<std::size_t> slice_of(map.shard_count(), map.shard_count());
  std::vector<TaskIndex> local_task(instance.num_tasks());
  for (std::size_t j = 0; j < instance.num_tasks(); ++j) {
    task_shard[j] = map.shard_of(round.task_cells[j]);
  }
  for (std::size_t shard = 0; shard < map.shard_count(); ++shard) {
    if (std::find(task_shard.begin(), task_shard.end(), shard) != task_shard.end()) {
      slice_of[shard] = partition.shards.size();
      partition.shards.emplace_back().shard = shard;
    }
  }
  for (std::size_t j = 0; j < instance.num_tasks(); ++j) {
    auto& slice = partition.shards[slice_of[task_shard[j]]];
    local_task[j] = static_cast<TaskIndex>(slice.global_tasks.size());
    slice.global_tasks.push_back(static_cast<TaskIndex>(j));
    slice.instance.requirement_pos.push_back(instance.requirement_pos[j]);
  }
  for (std::size_t i = 0; i < instance.num_users(); ++i) {
    const auto& bid = instance.users[i];
    const auto user = static_cast<UserId>(i);
    if (bid.tasks.empty()) {
      partition.unassigned_users.push_back(user);
      continue;
    }
    std::vector<std::pair<std::size_t, double>> touched;  // (shard, Σ q)
    for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
      const std::size_t shard = task_shard[static_cast<std::size_t>(bid.tasks[k])];
      const double q = common::contribution_from_pos(bid.pos[k]);
      auto it = std::find_if(touched.begin(), touched.end(),
                             [shard](const auto& w) { return w.first == shard; });
      if (it == touched.end()) {
        touched.emplace_back(shard, q);
      } else {
        it->second += q;
      }
    }
    std::sort(touched.begin(), touched.end());
    auto owner = touched.front();
    for (const auto& weight : touched) {
      if (weight.second > owner.second) {
        owner = weight;
      }
    }
    if (touched.size() > 1) {
      partition.straddlers.push_back(user);
    }
    auto& slice = partition.shards[slice_of[owner.first]];
    MultiTaskUserBid local;
    local.cost = bid.cost;
    for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
      const auto task = static_cast<std::size_t>(bid.tasks[k]);
      if (task_shard[task] == owner.first) {
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

/// A residue-pure round over 64 tasks in 16 classes, then ~7.5% of users
/// also bid on one task of another class (straddlers at every shard count
/// that separates the two classes) and ~3% declare no task at all.
GeoRound straddling_round(std::size_t n, std::uint64_t seed) {
  auto round = residue_pure_round(n, 64, 16, 0.35, seed);
  common::Rng rng(seed ^ 0x5ad);
  for (auto& bid : round.instance.users) {
    const double draw = rng.uniform(0.0, 1.0);
    if (draw < 0.03) {
      bid.tasks.clear();
      bid.pos.clear();
    } else if (draw < 0.105) {
      const auto cls = (bid.tasks.front() % 16 + 1 + rng.uniform_int(0, 14)) % 16;
      const auto task = static_cast<TaskIndex>(cls + 16 * rng.uniform_int(0, 3));
      const auto at = std::lower_bound(bid.tasks.begin(), bid.tasks.end(), task);
      bid.pos.insert(bid.pos.begin() + (at - bid.tasks.begin()), rng.uniform(0.05, 0.5));
      bid.tasks.insert(at, task);
    }
  }
  return round;
}

/// Byte-for-byte column equality (EXPECT_EQ on doubles would let -0.0 pass
/// for 0.0).
template <typename Column>
void expect_same_bits(const Column& a, const Column& b, const char* column) {
  ASSERT_EQ(a.size(), b.size()) << column;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0) << column;
  }
}

void expect_same_view(const auction::multi_task::MultiTaskView& a,
                      const auction::multi_task::MultiTaskView& b) {
  expect_same_bits(a.offsets, b.offsets, "offsets");
  expect_same_bits(a.tasks, b.tasks, "tasks");
  expect_same_bits(a.contributions, b.contributions, "contributions");
  expect_same_bits(a.costs, b.costs, "costs");
  expect_same_bits(a.requirements, b.requirements, "requirements");
  expect_same_bits(a.initial_effective, b.initial_effective, "initial_effective");
}

void expect_same_membership(const RoundPartition& a, const RoundPartition& b) {
  EXPECT_EQ(a.straddlers, b.straddlers);
  EXPECT_EQ(a.unassigned_users, b.unassigned_users);
  EXPECT_EQ(a.dropped_task_entries, b.dropped_task_entries);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].shard, b.shards[s].shard);
    EXPECT_EQ(a.shards[s].global_tasks, b.shards[s].global_tasks);
    EXPECT_EQ(a.shards[s].global_users, b.shards[s].global_users);
  }
}

TEST(ColumnPartition, ViewsMatchTheAosPartitionOnEveryPool) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    // 3000 users span three partition chunks.
    const auto round = straddling_round(3000, seed);
    for (const std::size_t shard_count : {2u, 4u, 16u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(shard_count) +
                   " shards");
      const ShardMap map(shard_count);
      const auto aos = partition_round(round, map);
      EXPECT_GT(aos.straddlers.size(), 0u);
      EXPECT_GT(aos.unassigned_users.size(), 0u);

      // The AoS convenience reproduces the serial oracle exactly.
      const auto reference = reference_partition(round, map);
      expect_same_membership(aos, reference);
      for (std::size_t s = 0; s < aos.shards.size(); ++s) {
        const auto& local = aos.shards[s].instance;
        const auto& expected = reference.shards[s].instance;
        EXPECT_EQ(local.requirement_pos, expected.requirement_pos);
        ASSERT_EQ(local.num_users(), expected.num_users());
        for (std::size_t u = 0; u < local.num_users(); ++u) {
          EXPECT_EQ(local.users[u].tasks, expected.users[u].tasks);
          EXPECT_EQ(local.users[u].pos, expected.users[u].pos);
          EXPECT_EQ(local.users[u].cost, expected.users[u].cost);
        }
      }

      // Every slice's view is the view of its AoS form, whatever the pool.
      for (const std::size_t workers : {1u, 4u}) {
        common::ThreadPool pool(workers);
        const auto columns = partition_views(round, map, pool);
        expect_same_membership(columns, aos);
        for (std::size_t s = 0; s < columns.shards.size(); ++s) {
          EXPECT_TRUE(columns.shards[s].instance.users.empty());
          expect_same_view(columns.shards[s].view,
                           auction::multi_task::MultiTaskView::from_instance(
                               aos.shards[s].instance));
        }
      }
    }
  }
}

TEST(ColumnPartition, EngineRunsViewsBitIdenticallyToInstances) {
  const auto round = straddling_round(1500, 3);
  const auction::Engine engine(auction::EngineOptions{.workers = 4});
  const auction::MechanismConfig config{};
  std::size_t paid = 0;  // the reward phase must run, not just the cover
  for (const std::size_t shard_count : {2u, 4u, 16u}) {
    const auto partition = partition_round(round, ShardMap(shard_count));
    for (const auto& slice : partition.shards) {
      const auto on_view = engine.run_one_isolated(slice.view, config);
      const auto on_instance = engine.run_one_isolated(slice.instance, config);
      ASSERT_EQ(on_view.status, on_instance.status) << on_view.error;
      EXPECT_EQ(on_view.error, on_instance.error);
      test::expect_identical_outcome(on_view.outcome, on_instance.outcome);
      paid += on_view.outcome.rewards.size();
    }
  }
  EXPECT_GT(paid, 0u);
}

TEST(ColumnPartition, ZeroTaskRoundReportsEveryUserUnassigned) {
  GeoRound round;
  round.instance.users.resize(3);  // no tasks, so no slice and no bid to place
  common::ThreadPool pool(2);
  const auto partition = partition_views(round, ShardMap(4), pool);
  EXPECT_TRUE(partition.shards.empty());
  EXPECT_EQ(partition.unassigned_users, (std::vector<UserId>{0, 1, 2}));
}

TEST(ColumnPartition, LowestIdInvalidBidFailsThePartitionOnEveryPool) {
  auto round = straddling_round(3000, 4);
  auto& users = round.instance.users;
  // Two malformed bids in different chunks; the lower id must win whatever
  // order the chunks finish in.
  auto non_empty_from = [&](std::size_t i) {
    while (users[i].tasks.empty()) {
      ++i;
    }
    return i;
  };
  const std::size_t low = non_empty_from(1500);
  const std::size_t high = non_empty_from(2100);
  users[high].cost = -1.0;
  users[low].tasks.back() = 64;
  std::string expected;
  try {
    users[low].validate(round.instance.num_tasks());
  } catch (const common::PreconditionError& e) {
    expected = e.what();
  }
  ASSERT_NE(expected.find("task index out of range"), std::string::npos);
  for (const std::size_t workers : {1u, 4u}) {
    common::ThreadPool pool(workers);
    try {
      partition_views(round, ShardMap(4), pool);
      ADD_FAILURE() << "partition accepted a malformed round";
    } catch (const common::PreconditionError& e) {
      EXPECT_EQ(e.what(), expected) << workers << " workers";
    }
  }
  EXPECT_THROW(partition_round(round, ShardMap(4)), common::PreconditionError);
}

// ---------------------------------------------------------------------------
// Shard policies
// ---------------------------------------------------------------------------

TEST(ShardPolicyTest, RowBandsKeepRowsContiguous) {
  const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  const auto map = ShardMap::row_bands(grid, 4);
  std::size_t previous = 0;
  for (std::int32_t row = 0; row < grid.rows(); ++row) {
    const auto shard = map.shard_of(grid.cell_at(row, 0));
    EXPECT_GE(shard, previous) << "row " << row;
    EXPECT_EQ(shard, map.shard_of(grid.cell_at(row, grid.cols() - 1)));
    previous = shard;
  }
  EXPECT_EQ(map.shard_of(grid.cell_at(grid.rows() - 1, 0)), 3u);
  EXPECT_THROW(ShardMap::row_bands(grid, static_cast<std::size_t>(grid.rows()) + 1),
               common::PreconditionError);
}

TEST(ShardPolicyTest, CellModuloCoversAllShards) {
  const ShardMap map(3);
  for (geo::CellId cell = 0; cell < 9; ++cell) {
    EXPECT_EQ(map.shard_of(cell), static_cast<std::size_t>(cell) % 3);
  }
  EXPECT_THROW(ShardMap(0), common::PreconditionError);
  EXPECT_THROW(map.shard_of(-1), common::PreconditionError);
}

// ---------------------------------------------------------------------------
// Bit-identity: sharded ≡ flat on straddler-free rounds
// ---------------------------------------------------------------------------

class ShardedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedEquivalence, FeasibleRoundsMatchFlatBitIdentically) {
  const auto round = residue_pure_round(28, 12, 4, 0.45, GetParam(), 0.6);
  const auction::MechanismConfig config{};
  const auto flat = auction::multi_task::run_mechanism(round.instance, config);
  for (const std::size_t shard_count : {2u, 4u}) {
    const auto partition = partition_round(round, ShardMap(shard_count));
    ASSERT_TRUE(partition.straddlers.empty());
    const auto merged = run_sharded(round, ShardMap(shard_count), config);
    ASSERT_TRUE(merged.ok()) << merged.error;
    test::expect_identical_outcome(merged.outcome, flat);
  }
}

TEST_P(ShardedEquivalence, InfeasibleRoundsMatchFlatAllOrNothing) {
  // Requirement 0.97 with PoS ≤ 0.2 per entry: most rounds cannot cover every
  // task, exercising the all-or-nothing merge (flat drops everything).
  const auto round = residue_pure_round(12, 8, 4, 0.97, GetParam() ^ 0xbad, 0.2);
  const auction::MechanismConfig config{};
  const auto flat = auction::multi_task::run_mechanism(round.instance, config);
  const auto merged = run_sharded(round, ShardMap(4), config);
  ASSERT_TRUE(merged.ok()) << merged.error;
  test::expect_identical_outcome(merged.outcome, flat);
}

TEST_P(ShardedEquivalence, PartialCoverageRoundsMatchFlat) {
  auto config = auction::MechanismConfig{};
  config.multi_task.partial_coverage = true;
  const auto round = residue_pure_round(12, 8, 4, 0.97, GetParam() ^ 0xcafe, 0.2);
  const auto flat = auction::multi_task::run_mechanism(round.instance, config);
  const auto merged = run_sharded(round, ShardMap(4), config);
  ASSERT_TRUE(merged.ok()) << merged.error;
  test::expect_identical_outcome(merged.outcome, flat);
}

TEST_P(ShardedEquivalence, IdenticalAcrossWorkerCountsWithStraddlers) {
  // With straddlers the sharded outcome may differ from flat, but it must be
  // a pure function of the round — identical whatever the engine's
  // parallelism.
  const auto round = arbitrary_round(24, 8, GetParam() ^ 0x57ad);
  const auction::MechanismConfig config{};
  const auto serial = run_sharded(round, ShardMap(3), config, 1);
  const auto parallel = run_sharded(round, ShardMap(3), config, 4);
  ASSERT_EQ(serial.status, parallel.status);
  EXPECT_EQ(serial.error, parallel.error);
  test::expect_identical_outcome(serial.outcome, parallel.outcome);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalence, ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Merge status semantics
// ---------------------------------------------------------------------------

TEST(MergeOutcomes, FailedShardPoisonsTheRound) {
  const auto round = residue_pure_round(12, 8, 2, 0.4, 3);
  const auto partition = partition_round(round, ShardMap(2));
  ASSERT_EQ(partition.shards.size(), 2u);
  std::vector<auction::AuctionOutcome> slots(2);
  slots[0].status = auction::AuctionStatus::kOk;
  slots[1].status = auction::AuctionStatus::kFailed;
  slots[1].error = "boom";
  const auto merged = merge_outcomes(round.instance, partition, slots, false);
  EXPECT_EQ(merged.status, auction::AuctionStatus::kFailed);
  EXPECT_EQ(merged.error, "shard 1: boom");
  EXPECT_TRUE(merged.outcome.allocation.winners.empty());
}

TEST(MergeOutcomes, TimedOutLosesToFailedButPoisonsAlone) {
  const auto round = residue_pure_round(12, 8, 2, 0.4, 4);
  const auto partition = partition_round(round, ShardMap(2));
  std::vector<auction::AuctionOutcome> slots(2);
  slots[0].status = auction::AuctionStatus::kTimedOut;
  slots[0].error = "deadline";
  const auto merged = merge_outcomes(round.instance, partition, slots, false);
  EXPECT_EQ(merged.status, auction::AuctionStatus::kTimedOut);
  EXPECT_EQ(merged.error, "shard 0: deadline");
}

TEST(MergeOutcomes, AggregatesEveryDeadShardError) {
  // The full blast radius: every dead shard appears in the round error, in
  // shard order, not just the lowest-indexed casualty.
  const auto round = residue_pure_round(24, 8, 4, 0.4, 5);
  const auto partition = partition_round(round, ShardMap(4));
  ASSERT_EQ(partition.shards.size(), 4u);
  std::vector<auction::AuctionOutcome> slots(4);
  slots[1].status = auction::AuctionStatus::kFailed;
  slots[1].error = "boom";
  slots[3].status = auction::AuctionStatus::kTimedOut;
  slots[3].error = "deadline";
  const auto merged = merge_outcomes(round.instance, partition, slots, false);
  EXPECT_EQ(merged.status, auction::AuctionStatus::kFailed);
  EXPECT_EQ(merged.error, "shard 1: boom; shard 3: deadline");
}

// ---------------------------------------------------------------------------
// Degraded merge
// ---------------------------------------------------------------------------

/// Real per-shard engine slots for a partitioned round.
std::vector<auction::AuctionOutcome> engine_slots(const RoundPartition& partition,
                                                  const auction::MechanismConfig& config) {
  std::vector<MultiTaskInstance> batch;
  batch.reserve(partition.shards.size());
  for (const auto& slice : partition.shards) {
    batch.push_back(slice.instance);
  }
  const auction::Engine engine(auction::EngineOptions{.workers = 1});
  return engine.run_isolated(batch, config);
}

TEST(MergeOutcomes, DegradedMergeSalvagesSurvivingShards) {
  const auto round = residue_pure_round(24, 8, 2, 0.4, 6);
  const auto partition = partition_round(round, ShardMap(2));
  ASSERT_EQ(partition.shards.size(), 2u);
  const auction::MechanismConfig config{};
  auto slots = engine_slots(partition, config);
  ASSERT_TRUE(slots[1].outcome.allocation.feasible) << "survivor shard must be feasible";
  const auto survivor = slots[1];
  slots[0] = auction::AuctionOutcome{};
  slots[0].status = auction::AuctionStatus::kFailed;
  slots[0].error = "boom";

  const auto merged =
      merge_outcomes(round.instance, partition, slots, false, MergePolicy::kDegradedMerge);
  EXPECT_EQ(merged.status, auction::AuctionStatus::kDegraded);
  EXPECT_TRUE(merged.outcome.degraded);
  EXPECT_FALSE(merged.outcome.allocation.feasible);
  EXPECT_EQ(merged.error, "shard 0: boom");

  // Winners and rewards are the survivor's, mapped to global ids.
  const auto& slice = partition.shards[1];
  std::vector<UserId> expected_winners;
  for (UserId local : survivor.outcome.allocation.winners) {
    expected_winners.push_back(slice.global_users[static_cast<std::size_t>(local)]);
  }
  std::sort(expected_winners.begin(), expected_winners.end());
  EXPECT_EQ(merged.outcome.allocation.winners, expected_winners);
  ASSERT_EQ(merged.outcome.rewards.size(), survivor.outcome.rewards.size());
  EXPECT_EQ(merged.outcome.allocation.total_cost,
            round.instance.cost_of(merged.outcome.allocation.winners));

  // The dead shard's entire task slate is uncovered.
  std::vector<TaskIndex> expected_uncovered = partition.shards[0].global_tasks;
  std::sort(expected_uncovered.begin(), expected_uncovered.end());
  EXPECT_EQ(merged.outcome.uncovered_tasks, expected_uncovered);
}

TEST(MergeOutcomes, DegradedMergeWithEveryShardDeadFallsBackToPoison) {
  const auto round = residue_pure_round(12, 8, 2, 0.4, 7);
  const auto partition = partition_round(round, ShardMap(2));
  std::vector<auction::AuctionOutcome> slots(2);
  slots[0].status = auction::AuctionStatus::kTimedOut;
  slots[0].error = "deadline";
  slots[1].status = auction::AuctionStatus::kFailed;
  slots[1].error = "boom";
  const auto merged =
      merge_outcomes(round.instance, partition, slots, false, MergePolicy::kDegradedMerge);
  EXPECT_EQ(merged.status, auction::AuctionStatus::kFailed);
  EXPECT_EQ(merged.error, "shard 0: deadline; shard 1: boom");
  EXPECT_TRUE(merged.outcome.allocation.winners.empty());
}

TEST(MergeOutcomes, DegradedMergeInfeasibleSurvivorFollowsPartialCoverageRule) {
  // Requirement 0.97 with PoS <= 0.2: the surviving shard is (almost surely)
  // infeasible. All-or-nothing drops its winners and counts all its tasks
  // uncovered; partial coverage keeps the partial prefix and only the truly
  // uncovered tasks.
  const auto round = residue_pure_round(24, 8, 2, 0.97, 8, 0.2);
  const auto partition = partition_round(round, ShardMap(2));
  ASSERT_EQ(partition.shards.size(), 2u);
  auto config = auction::MechanismConfig{};
  auto slots = engine_slots(partition, config);
  ASSERT_FALSE(slots[1].outcome.allocation.feasible) << "survivor shard must be infeasible";
  slots[0] = auction::AuctionOutcome{};
  slots[0].status = auction::AuctionStatus::kFailed;
  slots[0].error = "boom";

  const auto all_or_nothing =
      merge_outcomes(round.instance, partition, slots, false, MergePolicy::kDegradedMerge);
  EXPECT_EQ(all_or_nothing.status, auction::AuctionStatus::kDegraded);
  EXPECT_TRUE(all_or_nothing.outcome.allocation.winners.empty());
  EXPECT_TRUE(all_or_nothing.outcome.rewards.empty());
  // Dead shard's slate + the infeasible survivor's slate = every task.
  EXPECT_EQ(all_or_nothing.outcome.uncovered_tasks.size(), round.instance.num_tasks());

  auto partial_config = auction::MechanismConfig{};
  partial_config.multi_task.partial_coverage = true;
  auto partial_slots = engine_slots(partition, partial_config);
  ASSERT_FALSE(partial_slots[1].outcome.allocation.feasible);
  partial_slots[0] = auction::AuctionOutcome{};
  partial_slots[0].status = auction::AuctionStatus::kFailed;
  partial_slots[0].error = "boom";
  const auto partial = merge_outcomes(round.instance, partition, partial_slots, true,
                                      MergePolicy::kDegradedMerge);
  EXPECT_EQ(partial.status, auction::AuctionStatus::kDegraded);
  EXPECT_TRUE(partial.outcome.rewards.empty());  // infeasible survivor pays nobody
  // The survivor's partial winners survive into the merged report.
  EXPECT_EQ(partial.outcome.allocation.winners.size(),
            partial_slots[1].outcome.allocation.winners.size());
  // Uncovered = dead slate + survivor's own uncovered, never more than all.
  EXPECT_GE(partial.outcome.uncovered_tasks.size(), partition.shards[0].global_tasks.size());
  EXPECT_LE(partial.outcome.uncovered_tasks.size(), round.instance.num_tasks());
}

}  // namespace
}  // namespace mcs::service
