#include "auction/multi_task/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>

#include "auction/multi_task/gain.hpp"
#include "common/check.hpp"

namespace mcs::auction::multi_task {

namespace {

/// The selected user's gain read through the overlay.
double effective_of(const MultiTaskView& view, const ViewOverlay& overlay, UserId user,
                    std::span<const double> residual) {
  return effective_contribution(view.user_tasks(user), overlay.contributions_of(view, user),
                                residual);
}

/// One round's argmax: the user, her gain, and her ratio.
struct Pick {
  UserId user = 0;
  double effective = 0.0;
  double ratio = 0.0;
};

/// Closes out a keep_partial run: the allocation stays infeasible but keeps
/// the selected prefix and its cost, and the unmet tasks are reported.
GreedyResult finish_partial(const MultiTaskView& view, GreedyResult result,
                            const std::vector<double>& residual, bool timed_out) {
  for (std::size_t j = 0; j < residual.size(); ++j) {
    if (residual[j] > kResidualFloor) {
      result.uncovered_tasks.push_back(static_cast<TaskIndex>(j));
    }
  }
  result.timed_out = timed_out;
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = view.cost_of(result.allocation.winners);
  return result;
}

/// A lazy-heap entry: the user's ratio as of `round`. Her gain is not
/// kept: the pick recomputes it against the residuals the fresh ratio was
/// computed from, which gives the same bits, and keeps entries (and every
/// per-winner heap) at 16 bytes.
struct Entry {
  double ratio;
  UserId user;
  std::uint32_t round;
};

/// Max-heap order: higher ratio on top, equal ratios lower id on top.
struct Order {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.ratio != b.ratio) {
      return a.ratio < b.ratio;
    }
    return a.user > b.user;
  }
};

/// The CELF-style lazy argmax. Every heap entry carries the round its ratio
/// was computed in; ratios are non-increasing across rounds (the gain is
/// submodular in the shrinking residuals and costs are constant), so a stale
/// ratio is an upper bound. Popping until the top entry is fresh therefore
/// yields the true argmax, and ordering equal ratios by ascending user id
/// reproduces the full rescan's lowest-id tie-break: a smaller-id user
/// whose stale bound ties the fresh top would still sit above it, so she is
/// recomputed first and, on a true tie, selected first. Which upper bounds
/// the heap holds changes only how many entries are recomputed, never the
/// pick — so a heap rebuilt from a recorded run picks what a fresh one would.
class LazyPicker {
 public:
  /// Round 0 of a run through `overlay`. When `events` is non-null, every
  /// re-evaluation and drop is appended to it.
  LazyPicker(const MultiTaskView& view, const ViewOverlay& overlay, obs::PhaseCounters* counters,
             std::vector<HeapEvent>* events)
      : view_(view), overlay_(overlay), counters_(counters), events_(events) {
    std::vector<Entry> entries;
    entries.reserve(view.num_users());
    for (std::size_t i = 0; i < view.num_users(); ++i) {
      const auto user = static_cast<UserId>(i);
      // Round 0's residuals ARE the requirements, so the precomputed
      // first-round gains apply; only an overridden user needs a fresh scan.
      const double effective = user == overlay.overridden_user
                                   ? effective_of(view, overlay, user, view.requirements)
                                   : view.initial_effective[i];
      if (effective <= 0.0) {
        continue;
      }
      entries.push_back({effective / view.costs[i], user, 0});
    }
    heap_ = Heap(Order{}, std::move(entries));
  }

  /// Resumes at `round` from entries computed in that round or earlier.
  LazyPicker(const MultiTaskView& view, const ViewOverlay& overlay, obs::PhaseCounters* counters,
             std::vector<Entry> entries, std::uint32_t round)
      : view_(view),
        overlay_(overlay),
        counters_(counters),
        heap_(Order{}, std::move(entries)),
        round_(round) {}

  std::optional<Pick> next(const std::vector<double>& residual) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (top.round == round_) {
        ++round_;
        return Pick{top.user, effective_of(view_, overlay_, top.user, residual), top.ratio};
      }
      if (counters_ != nullptr) {
        ++counters_->heap_reevaluations;
      }
      const double effective = effective_of(view_, overlay_, top.user, residual);
      if (effective <= 0.0) {
        // Gains never recover (residuals only shrink): drop the user for good.
        log(top.user, -1.0);
        continue;
      }
      const double ratio = effective / view_.costs[static_cast<std::size_t>(top.user)];
      log(top.user, ratio);
      heap_.push({ratio, top.user, round_});
    }
    ++round_;
    return std::nullopt;
  }

 private:
  using Heap = std::priority_queue<Entry, std::vector<Entry>, Order>;

  void log(UserId user, double ratio) {
    if (events_ != nullptr) {
      events_->push_back({user, round_, ratio});
    }
  }

  const MultiTaskView& view_;
  const ViewOverlay& overlay_;
  obs::PhaseCounters* counters_;
  std::vector<HeapEvent>* events_ = nullptr;
  Heap heap_;
  std::uint32_t round_ = 0;
};

/// How a stretch of the selection loop ended.
enum class LoopEnd { kCovered, kStalled, kExpired, kStopped };

/// The selection loop of every run: until the residuals are covered, poll
/// the deadline, pick the argmax, append the step to `steps` (when non-null)
/// and deduct the pick's contributions. `stop(residual)`, asked before each
/// round, ends the loop early.
template <typename Stop>
LoopEnd select(const MultiTaskView& view, const ViewOverlay& overlay, LazyPicker& picker,
               std::vector<double>& residual, const GreedyOptions& options,
               std::vector<GreedyStep>* steps, Stop stop) {
  while (any_residual(residual)) {
    if (stop(residual)) {
      return LoopEnd::kStopped;
    }
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
    }
    if (options.deadline.expired()) {
      return LoopEnd::kExpired;
    }
    const auto pick = picker.next(residual);
    if (!pick) {
      return LoopEnd::kStalled;  // unmet requirements nobody can add to
    }
    if (options.counters != nullptr) {
      ++options.counters->rounds;
    }
    if (steps != nullptr) {
      steps->push_back({pick->user, pick->effective, pick->ratio,
                        options.record_residuals ? residual : std::vector<double>{}});
    }
    const auto tasks = view.user_tasks(pick->user);
    const auto contributions = overlay.contributions_of(view, pick->user);
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const auto task = static_cast<std::size_t>(tasks[k]);
      residual[task] = std::max(0.0, residual[task] - contributions[k]);
    }
  }
  return LoopEnd::kCovered;
}

constexpr auto kNeverStop = [](const std::vector<double>&) { return false; };

/// A whole run from round 0, closed out under GreedyOptions' contract: a
/// stall returns an empty result and an expiry throws, unless keep_partial.
GreedyResult cover(const MultiTaskView& view, const ViewOverlay& overlay, LazyPicker& picker,
                   const GreedyOptions& options) {
  GreedyResult result;
  std::vector<double> residual(view.requirements.begin(), view.requirements.end());
  const LoopEnd end = select(view, overlay, picker, residual, options, &result.steps, kNeverStop);
  for (const GreedyStep& step : result.steps) {
    result.allocation.winners.push_back(step.selected);
  }
  if (end != LoopEnd::kCovered) {
    if (options.keep_partial) {
      return finish_partial(view, std::move(result), residual, end == LoopEnd::kExpired);
    }
    if (end == LoopEnd::kExpired) {
      options.deadline.check("multi-task greedy cover");
    }
    return GreedyResult{};  // stalled: infeasible instance
  }
  result.allocation.feasible = true;
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = view.cost_of(result.allocation.winners);
  return result;
}

/// Whether the users other than `user` certainly cover every requirement,
/// so that no without-user run can stall. A run stalls on task j only after
/// selecting every other user with q^j > 0, and then its residual is Q_j
/// minus their exact sum S_j plus at most count_j rounding errors of
/// 2^-53·Q_j each. The column total, minus the user's own entry, is S_j up
/// to (count_j + 1)·2^-53·total_j. So a computed total clearing Q_j by
/// (count_j + 2)·2^-52·(total_j + Q_j) — twice both error terms — proves the
/// residual falls to 0 (DESIGN.md §8). An infinite total passes only while
/// another user's infinite contribution (PoS 1) remains, and she covers the
/// task alone; inf − inf is NaN and fails.
bool certainly_covers_without(const MultiTaskView& view, const RecordedRun& main, UserId user) {
  const auto tasks = view.user_tasks(user);
  const auto contributions = view.user_contributions(user);
  std::size_t k = 0;  // her tasks are strictly ascending: merge-walk them
  for (std::size_t j = 0; j < view.num_tasks(); ++j) {
    const double total = main.column_totals[j];
    double without = total;
    if (k < tasks.size() && static_cast<std::size_t>(tasks[k]) == j) {
      without = total - contributions[k];
      ++k;
    }
    const double required = view.requirements[j];
    const double margin =
        static_cast<double>(main.column_counts[j] + 2) * 0x1p-52 * (total + required);
    if (!(without >= required + margin)) {
      return false;
    }
  }
  return true;
}

}  // namespace

GreedyResult solve_greedy(const MultiTaskInstance& instance) {
  return solve_greedy(instance, GreedyOptions{});
}

GreedyResult solve_greedy(const MultiTaskInstance& instance, const GreedyOptions& options) {
  return solve_greedy(MultiTaskView::from_instance(instance), ViewOverlay::none(), options);
}

GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options) {
  LazyPicker picker(view, overlay, options.counters, nullptr);
  return cover(view, overlay, picker, options);
}

RecordedRun record_greedy(const MultiTaskView& view, const GreedyOptions& options) {
  const ViewOverlay none;
  RecordedRun run;
  GreedyOptions recording = options;
  recording.record_residuals = true;
  LazyPicker picker(view, none, options.counters, &run.events);
  run.result = cover(view, none, picker, recording);
  run.column_totals.assign(view.num_tasks(), 0.0);
  run.column_counts.assign(view.num_tasks(), 0);
  for (std::size_t k = 0; k < view.tasks.size(); ++k) {
    const auto task = static_cast<std::size_t>(view.tasks[k]);
    run.column_totals[task] += view.contributions[k];
    ++run.column_counts[task];
  }
  return run;
}

WithoutRun solve_greedy_without(const MultiTaskView& view, const RecordedRun& main, UserId user,
                                const GreedyOptions& options, bool stop_once_covered) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < view.num_users(),
              "user id out of range");
  MCS_EXPECTS(!main.result.timed_out, "the main run must have run to its end");
  const auto& steps = main.result.steps;
  const auto picked = std::find_if(steps.begin(), steps.end(),
                                   [user](const GreedyStep& step) { return step.selected == user; });
  const auto round = static_cast<std::size_t>(picked - steps.begin());
  WithoutRun run;
  run.prefix = std::span<const GreedyStep>(steps.data(), round);
  if (picked == steps.end()) {
    // She never topped the argmax, so no round changes without her.
    run.feasible = main.result.allocation.feasible;
    return run;
  }
  MCS_EXPECTS(picked->residual_before.size() == view.num_tasks(),
              "the main run must be recorded with its residuals");

  // The main run's heap at the start of her round: first-round entries,
  // updated by every event of an earlier round, minus the earlier picks and
  // her. A negative ratio marks a user no longer in the heap.
  std::vector<Entry> entries(view.num_users());
  for (std::size_t i = 0; i < view.num_users(); ++i) {
    const double effective = view.initial_effective[i];
    entries[i] = {effective > 0.0 ? effective / view.costs[i] : -1.0, static_cast<UserId>(i), 0};
  }
  for (const HeapEvent& event : main.events) {
    if (event.round >= round) {
      break;
    }
    Entry& entry = entries[static_cast<std::size_t>(event.user)];
    entry.ratio = event.ratio;
    entry.round = event.round;
  }
  for (std::size_t r = 0; r <= round; ++r) {
    entries[static_cast<std::size_t>(steps[r].selected)].ratio = -1.0;
  }
  std::erase_if(entries, [](const Entry& entry) { return entry.ratio < 0.0; });

  const ViewOverlay none;
  LazyPicker picker(view, none, options.counters, std::move(entries),
                    static_cast<std::uint32_t>(round));
  std::vector<double> residual = picked->residual_before;
  const auto tasks = view.user_tasks(user);
  const auto user_covered = [&](const std::vector<double>& current) {
    return stop_once_covered &&
           std::all_of(tasks.begin(), tasks.end(), [&](TaskIndex task) {
             return current[static_cast<std::size_t>(task)] <= kResidualFloor;
           });
  };
  LoopEnd end = select(view, none, picker, residual, options, &run.suffix, user_covered);
  if (end == LoopEnd::kStopped) {
    if (certainly_covers_without(view, main, user)) {
      run.feasible = true;
      return run;
    }
    end = select(view, none, picker, residual, options, nullptr, kNeverStop);
  }
  if (end == LoopEnd::kExpired) {
    options.deadline.check("multi-task greedy cover");
  }
  run.feasible = end == LoopEnd::kCovered;
  return run;
}

}  // namespace mcs::auction::multi_task
