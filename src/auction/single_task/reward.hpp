// Algorithm 3 of the paper: the reward scheme of the single-task mechanism.
// For a winner i, binary search (valid because the FPTAS winner determination
// is monotone in the declared contribution — Lemma 1) finds the critical
// contribution q̄_i: the smallest declaration with which i still wins. The
// critical PoS p̄_i = 1 - e^{-q̄_i} parameterizes the execution-contingent
// reward
//     success: (1 - p̄_i)·α + c_i,    failure: -p̄_i·α + c_i,
// which yields expected utility (p_i - p̄_i)·α and makes truthful PoS
// declaration dominant (Theorem 1).
#pragma once

#include "auction/instance.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::single_task {

/// Which winner-determination algorithm the critical-bid search replays. The
/// reward scheme must re-run the SAME rule that selected the winners, or the
/// computed threshold is for the wrong mechanism; kMinGreedy is the degraded
/// ladder's rule, matching the fallback allocation after an FPTAS timeout.
enum class WinnerRule {
  kFptas,
  kMinGreedy,
};

struct RewardOptions {
  double alpha = 10.0;             ///< reward scaling factor α (paper Table II)
  double epsilon = 0.1;            ///< FPTAS parameter used by the re-runs
  int binary_search_iterations = 48;  ///< ~1e-14 relative precision on q̄
  WinnerRule winner_rule = WinnerRule::kFptas;
  /// How FPTAS critical-bid probes are answered: kDpReuse (default) builds
  /// one FptasProbeContext per winner and answers probes from reused
  /// without-winner DP frontiers; kFullSolve re-runs the winner
  /// determination per probe (the oracle the fast path is differential-
  /// tested against). Bit-identical outcomes either way; Min-Greedy probes
  /// always full-solve. See DESIGN.md §8.
  ProbeStrategy probe_strategy = ProbeStrategy::kDpReuse;
  /// Cooperative wall-clock budget; polled once per probe and threaded into
  /// the FPTAS and Min-Greedy re-runs.
  common::Deadline deadline = {};
  /// Frontier-DP kernel threaded into every FPTAS re-run and probe-context
  /// build this search issues (see DpKernel); both settings bit-identical.
  DpKernel dp_kernel = DpKernel::kColumns;
  /// Borrowed per-instance bid columns (built once by the mechanism facade
  /// and shared across all winners' searches). When non-null, the
  /// probe-context build reads costs/contributions from these flat arrays;
  /// null builds a snapshot on demand. Probe re-runs that mutate a scratch
  /// instance always snapshot that instance themselves — the shared columns
  /// describe only the unmodified auction.
  const BidColumns* columns = nullptr;
  /// When non-null, accumulates probe / bisection / deadline-poll counts.
  /// The caller owns the block; under parallel rewards each worker slot must
  /// get its own (the mechanism facade merges them in index order).
  obs::PhaseCounters* counters = nullptr;
};

/// Critical contribution q̄_i of `winner`: the infimum of declared
/// contributions with which the winner-determination algorithm still selects
/// her, searched over [0, her declared contribution]. Requires that she wins
/// with her current declaration.
double critical_contribution(const SingleTaskInstance& instance, UserId winner,
                             const RewardOptions& options);

/// Full reward for one winner (Algorithm 3).
WinnerReward compute_reward(const SingleTaskInstance& instance, UserId winner,
                            const RewardOptions& options);

}  // namespace mcs::auction::single_task
