#include "platform/platform.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/distributions.hpp"
#include "platform/journal.hpp"
#include "sim/execution.hpp"
#include "sim/metrics.hpp"

namespace mcs::platform {

namespace {

/// The service configuration a campaign's rounds run under: the campaign's
/// mechanism knobs plus its shard count (cell-modulo policy). The service's
/// own journal stays off — the campaign journal also captures platform state
/// (positions, rng, reputation), which the round-outcome journal cannot.
service::ServiceConfig service_config_for(const CampaignConfig& config) {
  service::ServiceConfig service_config;
  service_config.shards = service::ShardMap(config.shards);
  service_config.mechanism =
      auction::MechanismConfig{.alpha = config.alpha,
                               .time_budget_seconds = config.auction_time_budget_seconds,
                               .multi_task = {.critical_bid_rule = config.critical_bid_rule}};
  return service_config;
}

void accumulate(CampaignReport& report, const RoundReport& round) {
  report.total_payout += round.payout;
  report.total_social_cost += round.social_cost;
  report.total_tasks_posted += round.tasks_posted;
  report.total_tasks_completed += round.tasks_completed;
  report.rounds_held += round.held ? 1 : 0;
  report.telemetry_totals += round.telemetry;
  for (trace::TaxiId taxi : round.winning_taxis) {
    ++report.wins_by_taxi[taxi];
  }
}

}  // namespace

double CampaignReport::completion_rate() const {
  if (total_tasks_posted == 0) {
    return 0.0;
  }
  return static_cast<double>(total_tasks_completed) / static_cast<double>(total_tasks_posted);
}

std::size_t CampaignReport::total_wins() const {
  std::size_t total = 0;
  for (const auto& [_, wins] : wins_by_taxi) {
    total += wins;
  }
  return total;
}

double CampaignReport::win_concentration() const {
  const auto total = total_wins();
  if (total == 0) {
    return 0.0;
  }
  double hhi = 0.0;
  for (const auto& [_, wins] : wins_by_taxi) {
    const double share = static_cast<double>(wins) / static_cast<double>(total);
    hhi += share * share;
  }
  return hhi;
}

double CampaignReport::top_winner_share() const {
  const auto total = total_wins();
  if (total == 0) {
    return 0.0;
  }
  std::size_t best = 0;
  for (const auto& [_, wins] : wins_by_taxi) {
    best = std::max(best, wins);
  }
  return static_cast<double>(best) / static_cast<double>(total);
}

Platform::Platform(const trace::CityModel& city, const mobility::FleetModel& fleet,
                   const CampaignConfig& config)
    : city_(city),
      fleet_(fleet),
      config_(config),
      service_(service_config_for(config)),
      rng_(config.seed) {
  MCS_EXPECTS(config.rounds > 0, "campaign needs at least one round");
  MCS_EXPECTS(config.num_tasks > 0, "campaign needs at least one task per round");
  MCS_EXPECTS(config.num_bidders > 0, "campaign needs at least one bidder per round");
  MCS_EXPECTS(config.pos_requirement > 0.0 && config.pos_requirement < 1.0,
              "PoS requirement must lie in (0, 1)");
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  MCS_EXPECTS(config.budget > 0.0, "budget must be positive");
  MCS_EXPECTS(config.availability > 0.0 && config.availability <= 1.0,
              "availability must lie in (0, 1]");
  positions_.reserve(fleet.taxis().size());
  for (trace::TaxiId taxi : fleet.taxis()) {
    positions_.push_back(city.home_cell(taxi));
  }
}

geo::CellId Platform::position_of(trace::TaxiId taxi) const {
  const auto& taxis = fleet_.taxis();
  const auto it = std::lower_bound(taxis.begin(), taxis.end(), taxi);
  MCS_EXPECTS(it != taxis.end() && *it == taxi, "unknown taxi id");
  return positions_[static_cast<std::size_t>(it - taxis.begin())];
}

CampaignReport Platform::run_campaign() {
  CampaignReport report;
  std::size_t start_round = 0;
  std::unique_ptr<JournalWriter> journal;
  if (!config_.journal_path.empty()) {
    // Resume: fold every journaled round back into the report and restore
    // the platform state captured after the last one. The replayed rounds
    // are bit-identical to what an uninterrupted run produced, because the
    // journal stores every double at full precision.
    ReplayedJournal replayed;
    journal = std::make_unique<JournalWriter>(config_.journal_path, config_fingerprint(config_),
                                              &replayed);
    for (const auto& entry : replayed.entries) {
      accumulate(report, entry.report);
      report.rounds.push_back(entry.report);
    }
    if (!replayed.entries.empty()) {
      const auto& last = replayed.entries.back();
      MCS_EXPECTS(last.positions.size() == positions_.size(),
                  "campaign journal was written for a different fleet");
      positions_ = last.positions;
      rng_.set_state(last.rng_state);
      reputation_ = ReputationTracker{};
      for (const auto& [taxi, record] : last.reputation) {
        reputation_.restore(taxi, record);
      }
      start_round = last.report.round + 1;
    }
  }
  for (std::size_t round = start_round; round < config_.rounds; ++round) {
    const double budget_left = config_.budget - report.total_payout;
    auto round_report = run_round(round, budget_left);
    if (journal) {
      JournalEntry entry;
      entry.report = round_report;
      entry.positions = positions_;
      entry.rng_state = rng_.state();
      entry.reputation.assign(reputation_.records().begin(), reputation_.records().end());
      journal->append(entry);
    }
    accumulate(report, round_report);
    report.rounds.push_back(std::move(round_report));
  }
  return report;
}

std::vector<geo::CellId> Platform::demand_tasks(
    const std::vector<mobility::MobilityUser>& pool) {
  const auto ranked = sim::popular_cells(pool);
  if (ranked.size() < config_.num_tasks) {
    return {};
  }
  switch (config_.task_policy) {
    case TaskPolicy::kMostCovered:
      return {ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(config_.num_tasks)};
    case TaskPolicy::kZipfDemand: {
      auto weights = common::zipf_weights(ranked.size(), config_.demand_zipf_exponent);
      std::vector<geo::CellId> tasks;
      tasks.reserve(config_.num_tasks);
      for (std::size_t k = 0; k < config_.num_tasks; ++k) {
        const std::size_t pick = common::sample_categorical(rng_, weights);
        tasks.push_back(ranked[pick]);
        weights[pick] = 0.0;  // without replacement
      }
      return tasks;
    }
    case TaskPolicy::kUniformRandom: {
      const auto picks =
          common::sample_without_replacement(rng_, ranked.size(), config_.num_tasks);
      std::vector<geo::CellId> tasks;
      tasks.reserve(picks.size());
      for (std::size_t pick : picks) {
        tasks.push_back(ranked[pick]);
      }
      return tasks;
    }
  }
  throw common::PreconditionError("unknown task policy");
}

void Platform::advance_positions() {
  const auto& taxis = fleet_.taxis();
  for (std::size_t k = 0; k < taxis.size(); ++k) {
    positions_[k] = city_.sample_next_cell(taxis[k], positions_[k], rng_);
  }
}

RoundReport Platform::run_round(std::size_t round, double budget_left) {
  RoundReport report;
  report.round = round;

  // Mobile users bid from wherever the previous rounds left them; off-shift
  // taxis sit this round out but keep moving.
  std::vector<mobility::MobilityUser> pool;
  const auto& taxis = fleet_.taxis();
  mobility::UserDerivationConfig user_config;
  for (std::size_t k = 0; k < taxis.size(); ++k) {
    if (!rng_.bernoulli(config_.availability)) {
      continue;
    }
    auto user = mobility::derive_user_at(fleet_, taxis[k], positions_[k], user_config, rng_);
    if (user.has_value()) {
      pool.push_back(std::move(*user));
    }
  }
  if (pool.empty()) {
    advance_positions();
    return report;
  }

  // The taxis move one ground-truth step this slot regardless of the auction;
  // winners' realized moves also decide execution under kGroundTruthMobility.
  const auto positions_before = positions_;
  advance_positions();

  if (budget_left <= 0.0) {
    return report;  // budget exhausted: no auction held
  }

  sim::ScenarioParams params;
  params.pos_requirement = config_.pos_requirement;
  params.requirement_cap_fraction = config_.requirement_cap_fraction;
  const auto task_cells = demand_tasks(pool);
  if (task_cells.empty()) {
    return report;
  }
  auto scenario = sim::build_multi_task_at(pool, task_cells,
                                           std::min(config_.num_bidders, pool.size()), params,
                                           rng_);
  if (!scenario.has_value() || !scenario->instance.is_feasible()) {
    return report;  // nothing coverable this slot
  }

  // Isolated dispatch through the campaign service: a throwing or
  // deadline-exceeding auction skips this round (captured in the report)
  // instead of aborting the whole campaign. Submit-then-wait keeps this
  // blocking loop's behaviour while the async surface stays available to
  // direct service users.
  const auto round_id =
      service_.submit_round(service::GeoRound{scenario->instance, scenario->task_cells});
  const auto slot = service_.wait_outcome(round_id);
  report.degraded = slot.outcome.degraded;
  report.error = slot.error;
  report.telemetry = slot.outcome.telemetry;
  if (!slot.ok() || !slot.outcome.allocation.feasible) {
    return report;
  }
  const auto& outcome = slot.outcome;

  report.held = true;
  report.winners = outcome.allocation.winners.size();
  report.social_cost = outcome.allocation.total_cost;
  report.winning_taxis.reserve(outcome.allocation.winners.size());
  for (auction::UserId winner : outcome.allocation.winners) {
    report.winning_taxis.push_back(
        pool[scenario->participants[static_cast<std::size_t>(winner)]].taxi);
  }
  std::sort(report.winning_taxis.begin(), report.winning_taxis.end());
  report.tasks_posted = scenario->instance.num_tasks();
  {
    double required = 0.0;
    for (double t : scenario->instance.requirement_pos) {
      required += t;
    }
    report.mean_required_pos = required / static_cast<double>(report.tasks_posted);
    report.mean_achieved_pos =
        sim::average_achieved_pos(scenario->instance, outcome.allocation.winners);
  }

  // Realize execution.
  std::vector<bool> winner_any_success;
  std::vector<bool> task_completed(scenario->instance.num_tasks(), false);
  if (config_.execution == ExecutionModel::kDeclaredBernoulli) {
    const auto run = sim::simulate(scenario->instance, outcome.allocation.winners, rng_);
    winner_any_success = run.winner_any_success;
    task_completed = run.task_completed;
  } else {
    // Ground truth: a winner completes exactly the task (if any) at the cell
    // her realized move landed on. Her realized move is the position update
    // sampled above from her position at bidding time.
    winner_any_success.reserve(outcome.allocation.winners.size());
    for (auction::UserId winner : outcome.allocation.winners) {
      const auto& user = pool[scenario->participants[static_cast<std::size_t>(winner)]];
      const auto it = std::lower_bound(taxis.begin(), taxis.end(), user.taxi);
      MCS_ENSURES(it != taxis.end() && *it == user.taxi, "pool user missing from fleet");
      const auto taxi_index = static_cast<std::size_t>(it - taxis.begin());
      (void)positions_before;  // user.current_cell == positions_before[taxi_index]
      const geo::CellId landed = positions_[taxi_index];
      bool any = false;
      const auto& bid = scenario->instance.users[static_cast<std::size_t>(winner)];
      for (std::size_t j = 0; j < bid.tasks.size(); ++j) {
        const auto task = static_cast<std::size_t>(bid.tasks[j]);
        if (scenario->task_cells[task] == landed) {
          any = true;
          task_completed[task] = true;
        }
      }
      winner_any_success.push_back(any);
    }
  }

  report.tasks_completed = static_cast<std::size_t>(
      std::count(task_completed.begin(), task_completed.end(), true));
  report.payout = sim::settle_payout(outcome, winner_any_success);

  // One reputation observation per winner: declared overall success
  // probability vs what actually happened.
  for (std::size_t k = 0; k < outcome.allocation.winners.size(); ++k) {
    const auto winner = outcome.allocation.winners[k];
    const auto& user = pool[scenario->participants[static_cast<std::size_t>(winner)]];
    const double declared =
        scenario->instance.users[static_cast<std::size_t>(winner)].any_success_probability();
    reputation_.record(user.taxi, declared, winner_any_success[k]);
  }
  return report;
}

}  // namespace mcs::platform
