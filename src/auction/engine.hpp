// Batched auction engine: the platform-facing entry point for running many
// auctions of either family on the persistent thread pool. Campaign rounds,
// experiment sweeps, and replayed traces are streams of independent sealed-bid
// auctions (Algorithms 2–5 share nothing across instances), so the engine
// parallelizes ACROSS auctions first; a lone auction instead runs on the
// calling thread where the per-winner critical-bid parallelism inside
// run_mechanism still fans out.
//
// Determinism contract: outcomes come back in submission order and are
// bit-identical to calling the per-family run_mechanism serially on each
// instance, whatever the worker count — both parallelism levels only ever
// partition independent, index-addressed work.
//
// Fault isolation: run() keeps the strict contract (first exception by index
// rethrown after the batch completes), while run_isolated() never throws for
// a per-auction failure — each slot instead carries a structured
// AuctionStatus plus the error text, so one malformed instance or blown
// deadline cannot take down its siblings' results.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "auction/instance.hpp"
#include "common/thread_pool.hpp"

namespace mcs::auction {

namespace multi_task {
struct MultiTaskView;
}  // namespace multi_task

/// One auction of either family, as submitted to the engine.
using AuctionInstance = std::variant<SingleTaskInstance, MultiTaskInstance>;

/// How one isolated auction slot ended.
enum class AuctionStatus {
  kOk,        ///< clean outcome, identical to the strict path
  kDegraded,  ///< a fallback produced the outcome (see MechanismOutcome::degraded)
  kTimedOut,  ///< the wall-clock budget expired (common::DeadlineExceeded)
  kFailed,    ///< any other exception (e.g. PreconditionError on bad input)
};

const char* to_string(AuctionStatus status);

/// One slot of an isolated batch: the outcome when the auction produced one
/// (kOk/kDegraded — bit-identical to run_mechanism on that instance), plus
/// the captured error text otherwise.
struct AuctionOutcome {
  AuctionStatus status = AuctionStatus::kOk;
  MechanismOutcome outcome;  ///< default-constructed for kTimedOut/kFailed
  std::string error;         ///< exception what(); empty for kOk/kDegraded

  /// True when `outcome` is meaningful (possibly via a degraded ladder).
  bool ok() const { return status == AuctionStatus::kOk || status == AuctionStatus::kDegraded; }
};

struct EngineOptions {
  /// Worker threads. 0 shares the process-wide pool (the common case: one
  /// engine per process); a positive count gives the engine a dedicated pool
  /// of exactly that size, which then also caps the intra-auction
  /// critical-bid threads — workers = 1 is the fully serial reference path.
  std::size_t workers = 0;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});

  /// The pool batches run on: the shared pool, or the dedicated one.
  common::ThreadPool& pool() const;
  /// Threads available to a batch (the shared or dedicated pool's size).
  std::size_t worker_count() const;

  /// Runs a batch under one shared config; outcomes align with the batch.
  /// The first exception (by batch index), e.g. a PreconditionError from an
  /// invalid instance or config, is rethrown after the batch completes.
  std::vector<MechanismOutcome> run(const std::vector<AuctionInstance>& batch,
                                    const MechanismConfig& config = {}) const;
  std::vector<MechanismOutcome> run(const std::vector<SingleTaskInstance>& batch,
                                    const MechanismConfig& config = {}) const;
  std::vector<MechanismOutcome> run(const std::vector<MultiTaskInstance>& batch,
                                    const MechanismConfig& config = {}) const;

  /// Fault-isolated batch: never throws for a per-auction failure. Healthy
  /// slots are bit-identical to the strict path; a throwing or
  /// deadline-exceeding auction only poisons its own slot, which carries the
  /// structured status and error text instead. (Batch-level errors — e.g.
  /// allocation failure of the outcome vector itself — still throw.)
  std::vector<AuctionOutcome> run_isolated(const std::vector<AuctionInstance>& batch,
                                           const MechanismConfig& config = {}) const;
  std::vector<AuctionOutcome> run_isolated(const std::vector<SingleTaskInstance>& batch,
                                           const MechanismConfig& config = {}) const;
  std::vector<AuctionOutcome> run_isolated(const std::vector<MultiTaskInstance>& batch,
                                           const MechanismConfig& config = {}) const;

  /// Single-auction convenience: runs on the calling thread with the
  /// engine's worker budget applied to the critical-bid computations.
  MechanismOutcome run_one(const SingleTaskInstance& instance,
                           const MechanismConfig& config = {}) const;
  MechanismOutcome run_one(const MultiTaskInstance& instance,
                           const MechanismConfig& config = {}) const;
  MechanismOutcome run_one(const AuctionInstance& instance,
                           const MechanismConfig& config = {}) const;

  /// Isolated single-auction convenience, same capture rules as
  /// run_isolated.
  AuctionOutcome run_one_isolated(const SingleTaskInstance& instance,
                                  const MechanismConfig& config = {}) const;
  AuctionOutcome run_one_isolated(const MultiTaskInstance& instance,
                                  const MechanismConfig& config = {}) const;
  AuctionOutcome run_one_isolated(const AuctionInstance& instance,
                                  const MechanismConfig& config = {}) const;
  /// Same, for a multi-task auction already in CSR form (a sharded round's
  /// slice): multi_task::run_mechanism's view core, bit-identical to the
  /// instance overload on the instance the view was built from.
  AuctionOutcome run_one_isolated(const multi_task::MultiTaskView& view,
                                  const MechanismConfig& config = {}) const;

 private:
  template <typename Item>
  std::vector<MechanismOutcome> run_batch(const std::vector<Item>& batch,
                                          const MechanismConfig& config) const;
  template <typename Item>
  std::vector<AuctionOutcome> run_batch_isolated(const std::vector<Item>& batch,
                                                 const MechanismConfig& config) const;
  /// A dedicated pool's size becomes the default critical-bid budget, so an
  /// Engine{workers = w} never uses more than w threads at either level.
  MechanismConfig effective_config(const MechanismConfig& config) const;

  std::unique_ptr<common::ThreadPool> owned_;  ///< null when sharing
};

}  // namespace mcs::auction
