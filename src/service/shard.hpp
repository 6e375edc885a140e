// Geo-sharding of campaign rounds (ROADMAP item 1): partition one city-wide
// multi-task round into per-shard sub-auctions by geo::GridMap cell, run each
// shard independently, and merge the per-shard MechanismOutcomes back into
// one round outcome.
//
// Why this is sound: the multi-task mechanism (Algorithms 4 + 5) is
// separable across tasks. A user only ever affects the greedy cover through
// the tasks in her declared set, so when every user's task set lies inside
// one shard, the flat greedy run is exactly an interleaving of the per-shard
// runs — same picks, same residual trajectories, same critical-bid
// bisections. The merge below reconstructs the flat outcome from the shard
// outcomes without recomputing anything:
//
//   * winners: shard winners mapped back to global ids and merged ascending
//     (the flat allocation's documented order);
//   * total_cost: re-summed over the merged winners in ascending-id order
//     with the flat instance's costs — the same summation, in the same
//     order, the flat path performs (MultiTaskView::cost_of);
//   * rewards: per-winner critical bids are shard-local quantities (the
//     without-i greedy only moves inside i's shard), remapped and merged in
//     winner order;
//   * telemetry: summed in shard-index order (deterministic totals).
//
// Determinism contract: sharded ≡ unsharded BIT-IDENTICALLY on
// straddler-free instances under CriticalBidRule::kBinarySearch, for any
// shard count and any worker count (pinned by tests/service_shard_test.cpp).
// Two documented exclusions:
//
//   * CriticalBidRule::kPaperIterationMin takes a minimum over the GLOBAL
//     without-i iteration sequence, which couples shards that share no task;
//     the service refuses it at shard_count > 1 (see service.hpp).
//   * An exact floating-point ratio tie between users in DIFFERENT shards
//     can flip one replayed bisection probe (the flat replay may tie-break
//     against a step the shard run never sees). Cross-shard ties are
//     measure-zero for real-valued bids; within a shard the lowest-id
//     tie-break is preserved exactly because partitioning keeps users in
//     ascending global-id order.
//
// Border-straddler protocol: a user whose declared task set spans multiple
// shards is assigned whole to ONE owning shard — the shard receiving the
// largest share of her declared contribution Σ_j q_i^j (summed in her task
// order), ties broken toward the LOWEST shard id. Her bid keeps its full
// cost but drops the task entries outside the owning shard: conservative
// for the platform (her usable contribution shrinks, she can only become
// less attractive) and strategy-preserving (the restriction depends only on
// task geography, never on her declared values' magnitudes relative to other
// users). With straddlers present, sharded outcomes legitimately differ from
// flat; the partition reports exactly which users were restricted.
//
// Column form: a partitioned round leaves this layer as one CSR
// auction::multi_task::MultiTaskView per shard, written by one two-pass
// counting sort over fixed user chunks on a thread pool. Pass 1 validates
// every non-empty bid, picks its owner (only straddlers compute q sums) and
// counts users and kept entries per (chunk, slice); a serial prefix sum in
// chunk order turns the counts into write offsets; pass 2 scatters every
// user straight into her shard's columns, computing q once per kept entry.
// Nothing is allocated per user, and the output is ordered by global id,
// so it never depends on the chunking or the worker count. A malformed bid
// fails the whole partition with MultiTaskInstance::validate's message for
// the lowest-id offender.
#pragma once

#include <cstddef>
#include <vector>

#include "auction/engine.hpp"
#include "auction/multi_task/view.hpp"
#include "common/thread_pool.hpp"
#include "geo/grid.hpp"

namespace mcs::service {

/// How cells map to shards. Both policies are pure functions of the cell id
/// and the shard count — two processes with the same configuration always
/// agree on every assignment.
enum class ShardPolicy {
  /// shard = cell % shard_count. Spreads load evenly and is grid-agnostic;
  /// geographically it interleaves columns, so neighborhood-shaped task sets
  /// straddle more often than under kRowBands.
  kCellModulo,
  /// Contiguous horizontal bands of grid rows: shard = row · count / rows.
  /// Keeps neighborhoods together (fewer straddlers for mobility-derived
  /// task sets) at the price of load skew when demand concentrates in a band.
  kRowBands,
};

/// Deterministic cell → shard mapping over a fixed cell domain.
class ShardMap {
 public:
  /// kCellModulo over any non-negative cell domain. Requires count >= 1.
  explicit ShardMap(std::size_t shard_count);

  /// kRowBands over `grid`'s rows. Requires 1 <= count <= grid.rows().
  static ShardMap row_bands(const geo::GridMap& grid, std::size_t shard_count);

  std::size_t shard_count() const { return shard_count_; }
  ShardPolicy policy() const { return policy_; }

  /// Shard owning a cell; requires a valid (non-negative) cell id.
  std::size_t shard_of(geo::CellId cell) const;

 private:
  ShardMap(std::size_t shard_count, ShardPolicy policy, std::int32_t rows, std::int32_t cols);

  std::size_t shard_count_;
  ShardPolicy policy_;
  std::int32_t rows_ = 0;  ///< kRowBands only
  std::int32_t cols_ = 0;  ///< kRowBands only
};

/// One platform round as submitted to the campaign service: a multi-task
/// auction plus the grid cell each task is pinned to (aligned with
/// instance.requirement_pos) — the shard key.
struct GeoRound {
  auction::MultiTaskInstance instance;
  std::vector<geo::CellId> task_cells;
};

/// One shard's slice of a partitioned round: a self-contained sub-auction
/// whose local task/user ids map back to the round's global ids. Local order
/// preserves global order (the partition is stable), so within-shard
/// lowest-id tie-breaks match the flat run's.
struct ShardSlice {
  std::size_t shard = 0;
  /// The slice in CSR form, equal field for field to
  /// MultiTaskView::from_instance of the slice's AoS form.
  auction::multi_task::MultiTaskView view;
  /// The AoS form; built only by partition_round, empty from partition_views.
  auction::MultiTaskInstance instance;
  std::vector<auction::TaskIndex> global_tasks;  ///< local task → global task
  std::vector<auction::UserId> global_users;     ///< local user → global user
};

/// A partitioned round. Only shards owning at least one task materialize.
struct RoundPartition {
  std::vector<ShardSlice> shards;  ///< ascending by shard id
  /// Users whose declared task sets spanned more than one shard, ascending.
  /// Each was assigned to one owning shard per the straddler protocol.
  std::vector<auction::UserId> straddlers;
  /// Users whose declared task sets were empty; they can never win and are
  /// excluded from every shard.
  std::vector<auction::UserId> unassigned_users;
  /// Task entries dropped from straddlers' bids (tasks outside the owner).
  std::size_t dropped_task_entries = 0;
};

/// Splits a round into per-shard CSR views (the column form in the file
/// header), running both passes on `pool`. Pure and deterministic: depends
/// only on the round and the map, never on the pool's size or scheduling.
/// Throws PreconditionError unless task_cells align with the instance's
/// tasks and hold valid cell ids, every requirement passes
/// MultiTaskInstance::validate_requirements, and every non-empty bid passes
/// MultiTaskUserBid::validate; a bid error names the lowest-id offender.
/// Empty-task users are reported as unassigned, never validated.
RoundPartition partition_views(const GeoRound& round, const ShardMap& map,
                               common::ThreadPool& pool);

/// The AoS convenience: partition_views on the shared pool, plus each
/// slice's MultiTaskInstance built from that same pass (owner and slice
/// membership from the views; PoS copied verbatim from the round through
/// global_users and global_tasks).
RoundPartition partition_round(const GeoRound& round, const ShardMap& map);

/// What a dead shard (kFailed / kTimedOut engine slot) does to the round.
enum class MergePolicy {
  /// A dead shard poisons the whole round: the merge returns kFailed (any
  /// shard failed) or kTimedOut with every dead shard's error aggregated,
  /// and no allocation. This is the bit-identity-preserving default — a
  /// healthy round merges exactly as if the policy knob did not exist.
  kPoisonRound,
  /// Surviving shards still produce a round: the merge returns kDegraded
  /// with the survivors' winners, the dead shards' ENTIRE task slates
  /// reported as uncovered (reusing the partial-coverage reporting channel),
  /// and rewards paid only for shards whose mechanism ran to completion
  /// feasibly. Sound because the shard is the unit of all-or-nothing: a
  /// feasible shard's critical bids are shard-local, so paying its winners
  /// is unaffected by other shards' deaths. If EVERY shard is dead the
  /// policy falls back to kPoisonRound semantics — there is nothing to
  /// salvage. Deterministic: the merged outcome is a pure function of the
  /// slots, never of retry timing or scheduling.
  kDegradedMerge,
};

/// A slot whose mechanism never produced an outcome: failed or timed out.
/// The merge policy rules on dead shards, and the service retries them.
bool slot_dead(const auction::AuctionOutcome& slot);

/// Merges per-shard engine slots (aligned with partition.shards) back into
/// one round-level slot, reconstructing the flat outcome per the contract in
/// the file header. Status under kPoisonRound: any kFailed shard poisons the
/// round (then kTimedOut, then kDegraded), with ALL dead shards' errors
/// aggregated in shard order so operators see the full blast radius; rewards
/// are paid only when every shard is feasible, matching the flat mechanism's
/// all-or-nothing rule. Under kDegradedMerge a partially-dead round becomes
/// kDegraded per the MergePolicy contract above.
/// `flat` must be the round's original instance (for the cost re-summation);
/// `partial_coverage` must echo MechanismConfig::multi_task.partial_coverage
/// so infeasible rounds keep or drop the partial winner prefix exactly as
/// the flat run would.
auction::AuctionOutcome merge_outcomes(const auction::MultiTaskInstance& flat,
                                       const RoundPartition& partition,
                                       const std::vector<auction::AuctionOutcome>& slots,
                                       bool partial_coverage,
                                       MergePolicy policy = MergePolicy::kPoisonRound);

}  // namespace mcs::service
