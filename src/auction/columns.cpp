#include "auction/columns.hpp"

#include "common/math.hpp"

namespace mcs::auction {

BidColumns BidColumns::from_single_task(const SingleTaskInstance& instance) {
  BidColumns columns;
  const std::size_t n = instance.bids.size();
  columns.cost.reserve(n);
  columns.q.reserve(n);
  columns.amount.reserve(n);
  for (const SingleTaskBid& bid : instance.bids) {
    columns.cost.push_back(bid.cost);
    columns.q.push_back(common::contribution_from_pos(bid.pos));
    columns.amount.push_back(coverage::quantize(columns.q.back()));
  }
  return columns;
}

}  // namespace mcs::auction
