// Algorithm 2 of the paper: the FPTAS winner-determination algorithm for the
// single-task setting. Users are sorted by cost; for each prefix length k the
// costs are scaled by μ_k = ε·c_k/k, the scaled minimum knapsack is solved
// exactly by Algorithm 1, and the best feasible solution across the n
// subproblems (compared in the scaled domain, as in the paper) is returned.
//
// Coverage is decided by the exact integer predicate of auction/coverage.hpp
// (contributions floored to 2^-40 units, one integer threshold), shared by
// every single-task solver and the probe context below.
//
// Guarantees (paper Theorems 1-3, Lemma 1):
//   * (1+ε)-approximation of the optimal social cost among sets that meet
//     the same integer predicate — i.e. against the requirement shifted by
//     at most n·2^-40 in contribution,
//   * monotone in each user's declared PoS — the property the critical-bid
//     reward scheme (Algorithm 3) relies on; flooring is monotone, so the
//     quantized declaration keeps it,
//   * O(n^4/ε) time.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/columns.hpp"
#include "auction/instance.hpp"
#include "auction/single_task/dp_knapsack.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::single_task {

/// Runs the FPTAS winner determination. `epsilon` > 0 is the approximation
/// parameter. Returns an infeasible Allocation when even the full user set
/// cannot meet the requirement. The instance must be valid (validate()).
/// The subproblem scan and the DP sweeps poll `deadline` cooperatively and
/// throw common::DeadlineExceeded when it expires (the mechanism facade may
/// then retry on the Min-Greedy degraded ladder). `counters`, when non-null,
/// accumulates rounds (subproblem scans) and scan-level deadline polls (the
/// DP's inner polls are uncounted to keep the hot loop branch-free).
/// `kernel` selects the Algorithm 1 sweep implementation (see DpKernel);
/// both settings return bit-identical allocations. Coverage — the
/// feasibility check, the prefix filter, the DP — is the exact integer
/// predicate of auction/coverage.hpp, so a feasible instance always yields
/// a cover (a postcondition, not a recoverable case).
Allocation solve_fptas(const SingleTaskInstance& instance, double epsilon,
                       const common::Deadline& deadline = {},
                       obs::PhaseCounters* counters = nullptr,
                       DpKernel kernel = DpKernel::kColumns);

/// Column-routed overload: reads every per-user cost and contribution from
/// `columns` (one BidColumns::from_single_task snapshot of `instance`)
/// instead of striding the nested bids. The snapshot carries the identical
/// values the struct accessors would compute, so the allocation is
/// bit-identical; the mechanism facade builds the columns once per run and
/// shares them between winner determination and every reward search.
Allocation solve_fptas(const SingleTaskInstance& instance, const BidColumns& columns,
                       double epsilon, const common::Deadline& deadline = {},
                       obs::PhaseCounters* counters = nullptr,
                       DpKernel kernel = DpKernel::kColumns);

/// Reusable probe state of the single-task critical-bid fast path
/// (ProbeStrategy::kDpReuse). The bisection of Algorithm 3 asks "does winner
/// i still win when declaring q?" ~50 times per winner, and each full-solve
/// answer re-runs every FPTAS subproblem from scratch even though only i's
/// declaration changed. This context factors the solve into its
/// probe-invariant parts, computed once per winner:
///
///   * the (cost, id) sort order, the winner's slot m in it, and the other
///     users' quantized contributions — costs never change during a search;
///   * per-subproblem scaling μ_k and scaled costs;
///   * subproblems k <= m (prefixes that exclude the winner): solved once,
///     their scaled values are probe-independent and the winner is never in
///     them;
///   * subproblems k > m: one Algorithm 1 Pareto frontier over the OTHER
///     k-1 items. A probe compares the cheapest without-winner cover against
///     the cheapest "frontier state + probed contribution" cover (binary
///     search).
///
/// Bit-identity contract: every probe answer equals what solve_fptas would
/// return on an instance with the declaration written in. Coverage is the
/// exact integer predicate of auction/coverage.hpp, so "state + probed
/// contribution reaches T" is the very sum the oracle's DP forms, whatever
/// slot it folds the winner in at, and both cover costs are exact. Only an
/// exact scaled-cost tie between the two covers at the winning subproblem
/// leaves membership to the oracle DP's state order; THAT subproblem is then
/// re-solved with the real Algorithm 1 DP on the oracle's own item list. A
/// genuine full solve remains only for probes above the build-time
/// declaration, where the pruned tables are not conservative.
class FptasProbeContext {
 public:
  /// Builds the reusable tables for probing `winner`'s declarations in
  /// [0, her current declaration]. Cost is comparable to one solve_fptas
  /// run (frontiers are only built for subproblems that can cover the
  /// requirement at the declared contribution; lower declarations only
  /// shrink that set). `counters` (borrowed, may be null) accumulates the
  /// build's rounds and deadline polls plus per-probe dp_reuse_hits /
  /// dp_reuse_fallbacks and per-tie dp_reuse_exact_solves; the caller counts
  /// probes. Polls `deadline` once per subproblem, like solve_fptas.
  FptasProbeContext(const SingleTaskInstance& instance, UserId winner, double epsilon,
                    common::Deadline deadline = {}, obs::PhaseCounters* counters = nullptr,
                    DpKernel kernel = DpKernel::kColumns);

  /// Column-routed overload: the build reads costs and contributions from
  /// `columns` (a snapshot of `instance`, borrowed only for the build)
  /// instead of the nested bids — same values, identical tables.
  FptasProbeContext(const SingleTaskInstance& instance, const BidColumns& columns,
                    UserId winner, double epsilon, common::Deadline deadline = {},
                    obs::PhaseCounters* counters = nullptr,
                    DpKernel kernel = DpKernel::kColumns);

  /// Whether the winner is selected when declaring contribution
  /// `declared_q`. Applies the same q → PoS → q round trip as the scratch
  /// probe path, so the answer is bit-identical to solve_fptas on the
  /// modified instance — purely from the reused frontiers (dp_reuse_hits) or,
  /// on a tied cover, with that subproblem re-solved exactly
  /// (dp_reuse_fallbacks). A declaration that quantizes above the one the
  /// context was built with is answered by a genuine full solve (also
  /// counted as a fallback).
  bool wins(double declared_q);

 private:
  /// Per-subproblem reusable state; entry k of subproblems_ (1-based like
  /// the FPTAS scan) is one of three shapes: filtered out (the prefix cannot
  /// cover even at the declaration) / constant (k <= m, winner not in the
  /// prefix) / frontier-backed (k > m).
  struct Subproblem {
    double mu = 0.0;
    // k <= m: probe-independent result, solved at build time.
    bool constant_feasible = false;
    double constant_scaled_value = 0.0;
    // k > m: without-winner frontier and the winner's scaled cost.
    bool prepared = false;
    std::int64_t scaled_cost_winner = 0;
    /// Min scaled cost of a without-winner cover; kNoCover when none.
    std::int64_t cover_without_winner = 0;
    /// Without-winner Pareto states that can cover with some legal probe.
    std::vector<FrontierEntry> frontier;
  };

  /// Min scaled cost of a with-winner cover at `probe`; kNoCover when none.
  std::int64_t with_winner_cover(const Subproblem& sub, coverage::Amount probe) const;
  /// Whether the oracle's DP for subproblem k at `probe`, whose with- and
  /// without-winner covers both cost `cover`, reconstructs the with-winner
  /// one: re-runs the real Algorithm 1 DP on the subproblem's own item list,
  /// so the tie-breaking state order is the full solve's. Counts one
  /// dp_reuse_exact_solves.
  bool winner_in_tied_cover(std::size_t k, coverage::Amount probe, std::int64_t cover) const;
  bool fallback_wins(double declared_q);

  SingleTaskInstance scratch_;  ///< fallback probes write the declaration here
  UserId winner_;
  double epsilon_;
  common::Deadline deadline_;
  obs::PhaseCounters* counters_;
  DpKernel kernel_ = DpKernel::kColumns;  ///< threaded into every DP this context runs
  coverage::Amount threshold_ = 0;
  coverage::Amount declared_amount_ = 0;  ///< build-time declaration, quantized
  coverage::Amount others_amount_ = 0;    ///< everyone else's total (is_feasible replay)

  // FPTAS scan replay state (sorted-order).
  std::size_t position_ = 0;  ///< winner's slot m in the (cost, id) order
  std::vector<double> sorted_costs_;  ///< costs in (cost, id) order
  std::vector<coverage::Amount> sorted_amounts_;  ///< slot m unused (probe fills it)
  coverage::Amount prefix_at_position_ = 0;  ///< sum of slots [0, m)
  std::vector<Subproblem> subproblems_;  ///< index k in [1, n]
};

}  // namespace mcs::auction::single_task
