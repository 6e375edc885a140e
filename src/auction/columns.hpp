// Structure-of-arrays bid storage shared across the single-task mechanisms
// (DESIGN.md §8). A SingleTaskInstance keeps bids as an array of
// {cost, pos} structs — natural for validation and I/O, hostile to the hot
// loops, which touch ONE field of every bid: the FPTAS gathers costs in
// (cost, id) order, Min-Greedy ranks by contribution/cost density, and every
// coverage test sums contributions. BidColumns transposes the bids once per
// mechanism run into flat 64-byte-aligned columns — cost[i], q[i] =
// -ln(1 - p_i), and amount[i], q[i] quantized for the exact coverage
// predicate (auction/coverage.hpp) — so those loops stream 8-byte lanes
// instead of striding 16-byte structs and re-deriving q per read.
//
// Bit-identity: q is computed by the same contribution_from_pos the nested
// accessors call, and amount by the same coverage::quantize, once per bid, so
// every value a solver reads from the columns is the identical bit pattern
// the struct path would compute on the fly. The columns are a read-only
// snapshot: they must be rebuilt after any mutation of the instance (the
// mechanism facade builds them once per run; probe paths that mutate a
// scratch copy keep using the real instance).
#pragma once

#include <span>

#include "auction/coverage.hpp"
#include "auction/instance.hpp"
#include "common/aligned.hpp"

namespace mcs::auction {

/// Flat per-user columns of a SingleTaskInstance, indexed by UserId.
struct BidColumns {
  common::aligned_vector<double> cost;  ///< c_i, aligned with user ids
  common::aligned_vector<double> q;     ///< -ln(1 - p_i); +inf when p_i = 1
  common::aligned_vector<coverage::Amount> amount;  ///< coverage::quantize(q[i])

  std::size_t size() const { return cost.size(); }

  std::span<const double> cost_span() const { return {cost.data(), cost.size()}; }
  std::span<const double> q_span() const { return {q.data(), q.size()}; }
  std::span<const coverage::Amount> amount_span() const {
    return {amount.data(), amount.size()};
  }

  /// Transposes the instance's bids. Does not validate — callers that need
  /// validation (the mechanism facade) validate the instance once first.
  static BidColumns from_single_task(const SingleTaskInstance& instance);
};

}  // namespace mcs::auction
