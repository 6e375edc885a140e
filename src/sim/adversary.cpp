#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "reference/multi_task.hpp"
#include "sim/metrics.hpp"

namespace mcs::sim {

namespace {

// SplitMix64 finalizer — the same pure-coordinate hashing discipline
// common::FaultInjector uses, so attack streams replay bit-for-bit
// independent of thread interleaving or materialization order.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t chain(std::uint64_t h, std::uint64_t v) { return mix(h ^ mix(v)); }

double utility_of(const auction::SingleTaskInstance& truth,
                  const auction::MechanismOutcome& outcome, auction::UserId user) {
  if (!outcome.allocation.contains(user)) {
    return 0.0;
  }
  return outcome.reward_of(user).reward.expected_utility(truth.bids[user].pos);
}

double utility_of(const auction::MultiTaskInstance& truth,
                  const auction::MechanismOutcome& outcome, auction::UserId user) {
  if (!outcome.allocation.contains(user)) {
    return 0.0;
  }
  return outcome.reward_of(user).reward.expected_utility(
      truth.users[user].any_success_probability());
}

void check_members(std::size_t num_users, const std::vector<auction::UserId>& members) {
  MCS_EXPECTS(!members.empty(), "a coalition needs at least one member");
  for (std::size_t i = 0; i < members.size(); ++i) {
    MCS_EXPECTS(members[i] >= 0 && static_cast<std::size_t>(members[i]) < num_users,
                "coalition member out of range");
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      MCS_EXPECTS(members[i] != members[j], "coalition members must be distinct");
    }
  }
}

auction::MultiTaskInstance replace_user(const auction::MultiTaskInstance& base,
                                        auction::UserId user,
                                        const auction::MultiTaskUserBid& bid) {
  auction::MultiTaskInstance out = base;
  out.users[user] = bid;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pure attack streams
// ---------------------------------------------------------------------------

common::Rng attack_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round) {
  return common::Rng(chain(chain(mix(seed), static_cast<std::uint64_t>(axis)), round));
}

common::Rng attack_user_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round,
                               auction::UserId user) {
  const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(user));
  return common::Rng(
      chain(chain(chain(mix(seed), static_cast<std::uint64_t>(axis)), round), u));
}

// ---------------------------------------------------------------------------
// Attack configuration & per-round schedule
// ---------------------------------------------------------------------------

void AttackConfig::validate() const {
  privacy.validate();
  MCS_EXPECTS(cell_failures.event_prob >= 0.0 && cell_failures.event_prob < 1.0,
              "cell-failure event probability must lie in [0, 1)");
  if (cell_failures.event_prob > 0.0) {
    MCS_EXPECTS(!cell_failures.cells.empty(),
                "a positive event probability needs candidate cells");
  }
}

AttackSchedule make_attack_schedule(const AttackConfig& config, std::size_t rounds) {
  config.validate();
  AttackSchedule schedule;
  schedule.seed = config.seed;
  schedule.events.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    auto rng = attack_stream(config.seed, AttackAxis::kCellFailure, r);
    schedule.events.push_back(draw_cell_failure(config.cell_failures, rng));
  }
  return schedule;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> schedule_fail_at(
    const AttackSchedule& schedule, const std::function<std::size_t(geo::CellId)>& shard_of) {
  MCS_EXPECTS(static_cast<bool>(shard_of), "schedule_fail_at needs a shard map");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fail_at;
  for (std::size_t r = 0; r < schedule.events.size(); ++r) {
    const auto& event = schedule.events[r];
    if (event.occurred) {
      fail_at.emplace_back(static_cast<std::uint64_t>(r),
                           static_cast<std::uint64_t>(shard_of(event.cell)));
    }
  }
  return fail_at;
}

common::Rng report_stream(const AttackConfig& config, std::uint64_t round,
                          auction::UserId user) {
  return attack_user_stream(config.seed, AttackAxis::kPrivacy, round, user);
}

auction::SingleTaskInstance noised_reports(const AttackConfig& config,
                                           const auction::SingleTaskInstance& instance,
                                           std::uint64_t round) {
  config.validate();
  auction::SingleTaskInstance noised = instance;
  if (!config.privacy.enabled()) {
    return noised;
  }
  for (std::size_t u = 0; u < noised.bids.size(); ++u) {
    auto rng = report_stream(config, round, static_cast<auction::UserId>(u));
    noised.bids[u].pos = privatize_pos(noised.bids[u].pos, config.privacy, rng);
  }
  return noised;
}

auction::MultiTaskInstance noised_reports(const AttackConfig& config,
                                          const auction::MultiTaskInstance& instance,
                                          std::uint64_t round) {
  config.validate();
  auction::MultiTaskInstance noised = instance;
  if (!config.privacy.enabled()) {
    return noised;
  }
  for (std::size_t u = 0; u < noised.users.size(); ++u) {
    auto rng = report_stream(config, round, static_cast<auction::UserId>(u));
    for (auto& pos : noised.users[u].pos) {
      pos = privatize_pos(pos, config.privacy, rng);
    }
  }
  return noised;
}

// ---------------------------------------------------------------------------
// Sybil probes
// ---------------------------------------------------------------------------

namespace {

double split_pos(double pos, std::size_t clones) {
  const double q = common::contribution_from_pos(pos);
  return common::pos_from_contribution(q / static_cast<double>(clones));
}

}  // namespace

SingleTaskSybilSplit split_identity(const auction::SingleTaskInstance& instance,
                                    auction::UserId user, std::size_t clones) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < instance.num_users(),
              "sybil target out of range");
  MCS_EXPECTS(clones >= 2, "an identity split needs at least 2 clones");
  SingleTaskSybilSplit split;
  split.instance = instance;
  const auction::SingleTaskBid clone{instance.bids[user].cost / static_cast<double>(clones),
                                     split_pos(instance.bids[user].pos, clones)};
  split.instance.bids[user] = clone;
  split.identities.push_back(user);
  for (std::size_t k = 1; k < clones; ++k) {
    split.identities.push_back(static_cast<auction::UserId>(split.instance.bids.size()));
    split.instance.bids.push_back(clone);
  }
  return split;
}

MultiTaskSybilSplit split_identity(const auction::MultiTaskInstance& instance,
                                   auction::UserId user, std::size_t clones) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < instance.num_users(),
              "sybil target out of range");
  MCS_EXPECTS(clones >= 2, "an identity split needs at least 2 clones");
  MultiTaskSybilSplit split;
  split.instance = instance;
  auction::MultiTaskUserBid clone = instance.users[user];
  clone.cost /= static_cast<double>(clones);
  for (auto& pos : clone.pos) {
    pos = split_pos(pos, clones);
  }
  split.instance.users[user] = clone;
  split.identities.push_back(user);
  for (std::size_t k = 1; k < clones; ++k) {
    split.identities.push_back(static_cast<auction::UserId>(split.instance.users.size()));
    split.instance.users.push_back(clone);
  }
  return split;
}

DeviationProbe probe_sybil_split(const auction::SingleTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config, double tolerance) {
  DeviationProbe probe;
  const auto honest = auction::single_task::run_mechanism(truth, config);
  probe.truthful_utility = utility_of(truth, honest, user);
  const auto split = split_identity(truth, user, clones);
  const auto attacked = auction::single_task::run_mechanism(split.instance, config);
  for (const auto id : split.identities) {
    probe.deviated_utility += utility_of(split.instance, attacked, id);
  }
  probe.gain = probe.deviated_utility - probe.truthful_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

DeviationProbe probe_sybil_split(const auction::MultiTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config, double tolerance) {
  DeviationProbe probe;
  const auto honest = auction::multi_task::run_mechanism(truth, config);
  probe.truthful_utility = utility_of(truth, honest, user);
  const auto split = split_identity(truth, user, clones);
  const auto attacked = auction::multi_task::run_mechanism(split.instance, config);
  for (const auto id : split.identities) {
    probe.deviated_utility += utility_of(split.instance, attacked, id);
  }
  probe.gain = probe.deviated_utility - probe.truthful_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

// ---------------------------------------------------------------------------
// Coalition probes
// ---------------------------------------------------------------------------

double joint_expected_utility(const auction::SingleTaskInstance& truth,
                              const auction::SingleTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config) {
  MCS_EXPECTS(truth.num_users() == declared.num_users(),
              "truth and declared instances must have the same users");
  const auto outcome = auction::single_task::run_mechanism(declared, config);
  double joint = 0.0;
  for (const auto member : members) {
    joint += utility_of(truth, outcome, member);
  }
  return joint;
}

double joint_expected_utility(const auction::MultiTaskInstance& truth,
                              const auction::MultiTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config) {
  MCS_EXPECTS(truth.num_users() == declared.num_users(),
              "truth and declared instances must have the same users");
  const auto outcome = auction::multi_task::run_mechanism(declared, config);
  double joint = 0.0;
  for (const auto member : members) {
    joint += utility_of(truth, outcome, member);
  }
  return joint;
}

CoalitionProbe probe_coalition_shading(const auction::SingleTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance) {
  check_members(truth.num_users(), members);
  CoalitionProbe probe;
  probe.members = std::move(members);
  probe.truthful_joint_utility =
      joint_expected_utility(truth, truth, probe.members, config);
  probe.best_joint_utility = probe.truthful_joint_utility;
  for (const double shade : shade_grid) {
    MCS_EXPECTS(shade > 0.0, "coalition shades must be positive");
    auction::SingleTaskInstance declared = truth;
    for (const auto member : probe.members) {
      declared = declared.with_declared_contribution(member,
                                                     shade * truth.contribution(member));
    }
    const double joint = joint_expected_utility(truth, declared, probe.members, config);
    if (joint > probe.best_joint_utility) {
      probe.best_joint_utility = joint;
      probe.best_shade = shade;
    }
  }
  probe.gain = probe.best_joint_utility - probe.truthful_joint_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

CoalitionProbe probe_coalition_shading(const auction::MultiTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance) {
  check_members(truth.num_users(), members);
  CoalitionProbe probe;
  probe.members = std::move(members);
  probe.truthful_joint_utility =
      joint_expected_utility(truth, truth, probe.members, config);
  probe.best_joint_utility = probe.truthful_joint_utility;
  for (const double shade : shade_grid) {
    MCS_EXPECTS(shade > 0.0, "coalition shades must be positive");
    auction::MultiTaskInstance declared = truth;
    for (const auto member : probe.members) {
      declared = declared.with_declared_total_contribution(
          member, shade * truth.users[member].total_contribution());
    }
    const double joint = joint_expected_utility(truth, declared, probe.members, config);
    if (joint > probe.best_joint_utility) {
      probe.best_joint_utility = joint;
      probe.best_shade = shade;
    }
  }
  probe.gain = probe.best_joint_utility - probe.truthful_joint_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

// ---------------------------------------------------------------------------
// Reputation-weighted feedback loop
// ---------------------------------------------------------------------------

auction::MultiTaskInstance scale_declared_contributions(
    const auction::MultiTaskInstance& declared, std::span<const double> weights) {
  MCS_EXPECTS(weights.size() == declared.num_users(),
              "one prior weight per user is required");
  auction::MultiTaskInstance weighted = declared;
  for (std::size_t u = 0; u < weighted.users.size(); ++u) {
    const double w = weights[u];
    MCS_EXPECTS(w > 0.0 && w <= 1.0, "prior weights must lie in (0, 1]");
    if (w == 1.0) {
      continue;
    }
    for (auto& pos : weighted.users[u].pos) {
      pos = common::pos_from_contribution(w * common::contribution_from_pos(pos));
    }
  }
  return weighted;
}

std::vector<FeedbackRound> run_reputation_feedback(const auction::MultiTaskInstance& truth,
                                                   const auction::MultiTaskInstance& declared,
                                                   const FeedbackConfig& config,
                                                   const PriorWeightFn& prior,
                                                   const RoundObservation& observe) {
  MCS_EXPECTS(truth.num_users() == declared.num_users() &&
                  truth.num_tasks() == declared.num_tasks(),
              "truth and declared instances must have the same shape");
  std::vector<FeedbackRound> rounds;
  rounds.reserve(config.rounds);
  for (std::size_t r = 0; r < config.rounds; ++r) {
    std::vector<double> weights(declared.num_users(), 1.0);
    if (prior) {
      for (std::size_t u = 0; u < weights.size(); ++u) {
        weights[u] = prior(static_cast<auction::UserId>(u));
      }
    }
    const auto weighted = scale_declared_contributions(declared, weights);
    const auto outcome = auction::multi_task::run_mechanism(weighted, config.mechanism);

    FeedbackRound row;
    row.round = r;
    row.feasible = outcome.allocation.feasible;
    row.winners = outcome.allocation.winners;
    row.total_cost = outcome.allocation.total_cost;
    // Execution realizes from the TRUE types on the round's pure stream —
    // winners ascending, one bernoulli each, so the draw order is fixed.
    auto rng = attack_stream(config.seed, AttackAxis::kReputation, r);
    row.winner_success.reserve(row.winners.size());
    for (const auto winner : row.winners) {
      const bool success = rng.bernoulli(truth.users[winner].any_success_probability());
      row.winner_success.push_back(success);
      if (observe) {
        observe(winner, declared.users[winner].any_success_probability(), success);
      }
    }
    rounds.push_back(std::move(row));
  }
  return rounds;
}

// ---------------------------------------------------------------------------
// Hostile instance generator
// ---------------------------------------------------------------------------

const char* to_string(HostileShape shape) {
  switch (shape) {
    case HostileShape::kRandom:
      return "random";
    case HostileShape::kTiedCosts:
      return "tied-costs";
    case HostileShape::kNearBoundary:
      return "near-boundary";
    case HostileShape::kZeroPosTail:
      return "zero-pos-tail";
    case HostileShape::kMixedMagnitude:
      return "mixed-magnitude";
  }
  return "unknown";
}

namespace {

common::Rng shape_stream(std::uint64_t seed, HostileShape shape, std::uint64_t salt) {
  return attack_stream(seed, AttackAxis::kInstance,
                       chain(static_cast<std::uint64_t>(shape), salt));
}

double shaped_cost(HostileShape shape, common::Rng& rng) {
  switch (shape) {
    case HostileShape::kTiedCosts:
      return 5.0;
    case HostileShape::kMixedMagnitude:
      return std::pow(10.0, rng.uniform(-3.0, 3.0));
    default:
      return rng.uniform(1.0, 10.0);
  }
}

/// Fraction of the population's total contribution the requirement demands;
/// kNearBoundary pins it at 95% so the noised/shaded instance teeters on
/// infeasibility.
double coverage_fraction(HostileShape shape, common::Rng& rng) {
  return shape == HostileShape::kNearBoundary ? 0.95 : rng.uniform(0.3, 0.7);
}

bool in_zero_tail(HostileShape shape, std::size_t user, std::size_t users) {
  return shape == HostileShape::kZeroPosTail && user >= (2 * users) / 3;
}

}  // namespace

auction::SingleTaskInstance hostile_single_task(std::size_t users, HostileShape shape,
                                                std::uint64_t seed) {
  MCS_EXPECTS(users >= 3, "hostile instances need at least 3 users");
  auto rng = shape_stream(seed, shape, users);
  auction::SingleTaskInstance instance;
  instance.bids.reserve(users);
  double total_q = 0.0;
  for (std::size_t u = 0; u < users; ++u) {
    auction::SingleTaskBid bid;
    bid.cost = shaped_cost(shape, rng);
    bid.pos = in_zero_tail(shape, u, users) ? 0.0 : rng.uniform(0.05, 0.6);
    total_q += common::contribution_from_pos(bid.pos);
    instance.bids.push_back(bid);
  }
  instance.requirement_pos =
      common::pos_from_contribution(coverage_fraction(shape, rng) * total_q);
  instance.validate();
  return instance;
}

auction::MultiTaskInstance hostile_multi_task(std::size_t users, std::size_t tasks,
                                              HostileShape shape, std::uint64_t seed) {
  MCS_EXPECTS(users >= 3 && tasks >= 1, "hostile instances need >= 3 users and a task");
  // Users 0..t-1 seed one task each so every task has a non-zero contributor
  // even under kZeroPosTail (the tail is the LAST third of the users).
  MCS_EXPECTS(tasks <= (2 * users) / 3,
              "hostile multi-task instances need tasks <= 2/3 of the users");
  auto rng = shape_stream(seed, shape, chain(users, tasks));
  auction::MultiTaskInstance instance;
  instance.users.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    auction::MultiTaskUserBid bid;
    bid.cost = shaped_cost(shape, rng);
    const auto first = static_cast<auction::TaskIndex>(u % tasks);
    bid.tasks.push_back(first);
    const auto extra = static_cast<std::size_t>(
        rng.uniform_int(0, std::min<std::int64_t>(2, static_cast<std::int64_t>(tasks) - 1)));
    for (std::size_t e = 0; e < extra; ++e) {
      const auto task = static_cast<auction::TaskIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(tasks) - 1));
      if (std::find(bid.tasks.begin(), bid.tasks.end(), task) == bid.tasks.end()) {
        bid.tasks.push_back(task);
      }
    }
    std::sort(bid.tasks.begin(), bid.tasks.end());
    const bool zero = in_zero_tail(shape, u, users);
    bid.pos.reserve(bid.tasks.size());
    for (std::size_t j = 0; j < bid.tasks.size(); ++j) {
      bid.pos.push_back(zero ? 0.0 : rng.uniform(0.05, 0.5));
    }
    instance.users.push_back(std::move(bid));
  }
  instance.requirement_pos.resize(tasks);
  std::vector<auction::UserId> everyone(users);
  for (std::size_t u = 0; u < users; ++u) {
    everyone[u] = static_cast<auction::UserId>(u);
  }
  for (std::size_t j = 0; j < tasks; ++j) {
    const double total =
        instance.achieved_contribution(everyone, static_cast<auction::TaskIndex>(j));
    instance.requirement_pos[j] =
        common::pos_from_contribution(coverage_fraction(shape, rng) * total);
  }
  instance.validate();
  return instance;
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

void SweepConfig::validate() const {
  MCS_EXPECTS(instances > 0, "the sweep needs at least one instance per point");
  MCS_EXPECTS(users >= 3 && tasks >= 1 && tasks <= (2 * users) / 3,
              "sweep users/tasks must satisfy the hostile-generator bounds");
  MCS_EXPECTS(!compute_opt || users <= 20, "brute-force OPT needs users <= 20");
  MCS_EXPECTS(alpha > 0.0, "alpha must be positive");
  MCS_EXPECTS(tolerance > 0.0, "tolerance must be positive");
  for (const double eps : epsilons) {
    MCS_EXPECTS(eps > 0.0 && std::isfinite(eps), "swept epsilons must be positive");
  }
  for (const double p : event_probs) {
    MCS_EXPECTS(p >= 0.0 && p < 1.0, "event probabilities must lie in [0, 1)");
  }
  for (const double s : shade_grid) {
    MCS_EXPECTS(s > 0.0, "coalition shades must be positive");
  }
  for (const std::size_t k : coalition_sizes) {
    MCS_EXPECTS(k >= 2 && k <= users, "coalition sizes must lie in [2, users]");
  }
  for (const std::size_t k : sybil_clones) {
    MCS_EXPECTS(k >= 2, "sybil splits need at least 2 clones");
  }
}

namespace {

bool rewards_identical(const std::vector<auction::WinnerReward>& a,
                       const std::vector<auction::WinnerReward>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user ||
        a[i].critical_contribution != b[i].critical_contribution ||
        a[i].reward.critical_pos != b[i].reward.critical_pos ||
        a[i].reward.cost != b[i].reward.cost || a[i].reward.alpha != b[i].reward.alpha) {
      return false;
    }
  }
  return true;
}

bool outcomes_identical(const auction::MechanismOutcome& a,
                        const auction::MechanismOutcome& b) {
  return a.allocation.feasible == b.allocation.feasible &&
         a.allocation.winners == b.allocation.winners &&
         a.allocation.total_cost == b.allocation.total_cost &&
         a.degraded == b.degraded && a.uncovered_tasks == b.uncovered_tasks &&
         rewards_identical(a.rewards, b.rewards);
}

/// Per-run state of the sweep: the fast and oracle configurations plus the
/// divergence counters every auction in the sweep reports into. The
/// multi-task oracle is reference::run_multi_task_mechanism, which reads only
/// the shared alpha and multi_task knobs of `fast`.
struct SweepContext {
  const SweepConfig& cfg;
  auction::MechanismConfig fast;
  auction::MechanismConfig oracle;
  SweepResult* result = nullptr;

  auction::MechanismOutcome run(const auction::SingleTaskInstance& instance) {
    const auto out = auction::single_task::run_mechanism(instance, fast);
    ++result->auctions_run;
    if (cfg.check_fast_paths &&
        !outcomes_identical(out, auction::single_task::run_mechanism(instance, oracle))) {
      ++result->fast_oracle_mismatches;
    }
    return out;
  }

  auction::MechanismOutcome run(const auction::MultiTaskInstance& instance) {
    const auto out = auction::multi_task::run_mechanism(instance, fast);
    ++result->auctions_run;
    if (cfg.check_fast_paths &&
        !outcomes_identical(out, reference::run_multi_task_mechanism(instance, fast))) {
      ++result->fast_oracle_mismatches;
    }
    return out;
  }
};

auction::MechanismConfig fast_config(const SweepConfig& cfg) {
  auction::MechanismConfig config;
  config.alpha = cfg.alpha;
  return config;  // defaults ARE the fast paths: kDpReuse, kColumns
}

auction::MechanismConfig oracle_config(const SweepConfig& cfg) {
  auction::MechanismConfig config;
  config.alpha = cfg.alpha;
  config.single_task.probe_strategy = auction::ProbeStrategy::kFullSolve;
  config.single_task.dp_kernel = auction::DpKernel::kScalarOracle;
  return config;
}

/// Brute-force OPT cost over all 2^n subsets; +inf when nothing covers.
double opt_cost(const auction::SingleTaskInstance& instance) {
  const std::size_t n = instance.num_users();
  const double required = instance.requirement_contribution();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double cost = 0.0;
    double q = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (mask & (1ULL << u)) {
        cost += instance.bids[u].cost;
        q += instance.contribution(static_cast<auction::UserId>(u));
      }
    }
    if (common::approx_ge(q, required) && cost < best) {
      best = cost;
    }
  }
  return best;
}

double opt_cost(const auction::MultiTaskInstance& instance) {
  const std::size_t n = instance.num_users();
  const auto required = instance.requirement_contributions();
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> achieved(required.size());
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double cost = 0.0;
    std::fill(achieved.begin(), achieved.end(), 0.0);
    for (std::size_t u = 0; u < n; ++u) {
      if (mask & (1ULL << u)) {
        const auto& bid = instance.users[u];
        cost += bid.cost;
        for (std::size_t j = 0; j < bid.tasks.size(); ++j) {
          achieved[static_cast<std::size_t>(bid.tasks[j])] +=
              common::contribution_from_pos(bid.pos[j]);
        }
      }
    }
    bool covers = cost < best;
    for (std::size_t j = 0; covers && j < required.size(); ++j) {
      covers = common::approx_ge(achieved[j], required[j]);
    }
    if (covers) {
      best = cost;
    }
  }
  return best;
}

/// True-type coverage of a winner set: fraction of the tasks whose TRUE
/// achieved PoS meets the truthful requirement.
double true_coverage(const auction::SingleTaskInstance& truth,
                     const std::vector<auction::UserId>& winners) {
  return common::approx_ge(achieved_pos(truth, winners), truth.requirement_pos) ? 1.0 : 0.0;
}

double true_coverage(const auction::MultiTaskInstance& truth,
                     const std::vector<auction::UserId>& winners) {
  const auto achieved = achieved_pos(truth, winners);
  std::size_t hit = 0;
  for (std::size_t j = 0; j < achieved.size(); ++j) {
    if (common::approx_ge(achieved[j], truth.requirement_pos[j])) {
      ++hit;
    }
  }
  return achieved.empty() ? 0.0 : static_cast<double>(hit) / static_cast<double>(achieved.size());
}

/// The strategic-deviation grid of user `u` in the single-task family: a
/// deviated declared PoS routed through the SAME report-noise realization
/// (common random numbers), compared against (a) the noised-truthful play and
/// (b) the clean-truthful envelope.
struct ProbeAccumulator {
  PrivacyPoint* pt = nullptr;
  SweepResult* result = nullptr;
  bool baseline = false;  ///< ε disabled: violations are theorem violations
  double tolerance = 1e-6;
  double sum_violation_gain = 0.0;

  void record(double deviated, double truthful, double clean) {
    ++pt->sp_probes;
    const double gain = deviated - truthful;
    if (gain > tolerance) {
      ++pt->sp_violations;
      sum_violation_gain += gain;
      pt->max_sp_gain = std::max(pt->max_sp_gain, gain);
      if (baseline) {
        ++result->truthful_sp_violations;
      }
    }
    pt->max_envelope_excess = std::max(pt->max_envelope_excess, deviated - clean);
  }
};

struct PointAverages {
  double sum_cost_ratio = 0.0;
  std::size_t cost_samples = 0;
  double sum_opt_ratio = 0.0;
  std::size_t opt_samples = 0;
  double sum_coverage = 0.0;
  std::size_t coverage_samples = 0;

  void finish(PrivacyPoint& pt) const {
    pt.cost_ratio_vs_truthful = cost_samples ? sum_cost_ratio / cost_samples : 0.0;
    pt.approx_ratio_vs_opt = opt_samples ? sum_opt_ratio / opt_samples : 0.0;
    pt.coverage_rate = coverage_samples ? sum_coverage / coverage_samples : 0.0;
  }
};

void finish_point(PrivacyPoint& pt, const ProbeAccumulator& acc, const PointAverages& avg) {
  pt.sp_violation_rate =
      pt.sp_probes ? static_cast<double>(pt.sp_violations) / pt.sp_probes : 0.0;
  pt.ir_violation_rate =
      pt.ir_winners ? static_cast<double>(pt.ir_violations) / pt.ir_winners : 0.0;
  pt.mean_sp_gain = pt.sp_violations ? acc.sum_violation_gain / pt.sp_violations : 0.0;
  avg.finish(pt);
}

void record_ir(const std::vector<double>& utilities, PrivacyPoint& pt, SweepResult& result,
               bool baseline, double tolerance) {
  for (const double u : utilities) {
    ++pt.ir_winners;
    if (u < -tolerance) {
      ++pt.ir_violations;
      if (baseline) {
        ++result.truthful_ir_violations;
      }
    }
  }
}

std::vector<PrivacyPoint> privacy_axis_single(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<double> eps_grid = {0.0};  // the truthful baseline
  eps_grid.insert(eps_grid.end(), cfg.epsilons.begin(), cfg.epsilons.end());

  std::vector<PrivacyPoint> points;
  for (const double eps : eps_grid) {
    PrivacyPoint pt;
    pt.epsilon = eps;
    const bool baseline = eps <= 0.0;
    ProbeAccumulator acc{&pt, ctx.result, baseline, cfg.tolerance};
    PointAverages avg;
    AttackConfig atk;
    atk.seed = cfg.seed;
    atk.privacy.epsilon = eps;
    atk.privacy.mechanism = cfg.mechanism;

    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto truth = hostile_single_task(cfg.users, shape, cfg.seed + i);
      const auto noised = noised_reports(atk, truth, i);
      const auto outcome = ctx.run(noised);

      if (outcome.allocation.feasible) {
        record_ir(expected_utilities(truth, outcome), pt, *ctx.result, baseline,
                  cfg.tolerance);
        avg.sum_coverage += true_coverage(truth, outcome.allocation.winners);
        ++avg.coverage_samples;
        const auto honest = ctx.run(truth);
        if (honest.allocation.feasible && honest.allocation.total_cost > 0.0) {
          avg.sum_cost_ratio += outcome.allocation.total_cost / honest.allocation.total_cost;
          ++avg.cost_samples;
        }
        if (cfg.compute_opt) {
          const double opt = opt_cost(truth);
          if (std::isfinite(opt) && opt > 0.0) {
            avg.sum_opt_ratio += outcome.allocation.total_cost / opt;
            ++avg.opt_samples;
          }
        }
      } else {
        ++pt.infeasible_noised;
      }

      for (std::size_t u = 0; u < cfg.users; ++u) {
        const auto user = static_cast<auction::UserId>(u);
        const double u_truthful = utility_of(truth, outcome, user);
        // The envelope: the user's exact true report, un-noised, with the
        // others' noised reports held fixed. SP of the underlying mechanism
        // says NO deviation (noised or not) beats this.
        const auto clean = noised.with_declared_pos(user, truth.bids[user].pos);
        const double u_clean = utility_of(truth, ctx.run(clean), user);
        for (std::size_t trial = 0; trial < cfg.misreport_trials; ++trial) {
          auto dev_rng =
              attack_user_stream(cfg.seed, AttackAxis::kMisreport, (i << 16) | trial, user);
          double declared = dev_rng.uniform(0.0, 0.95);
          if (!baseline) {
            auto noise = report_stream(atk, i, user);
            declared = privatize_pos(declared, atk.privacy, noise);
          }
          const auto deviated = noised.with_declared_pos(user, declared);
          acc.record(utility_of(truth, ctx.run(deviated), user), u_truthful, u_clean);
        }
      }
    }
    finish_point(pt, acc, avg);
    points.push_back(pt);
  }
  return points;
}

std::vector<PrivacyPoint> privacy_axis_multi(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<double> eps_grid = {0.0};
  eps_grid.insert(eps_grid.end(), cfg.epsilons.begin(), cfg.epsilons.end());

  std::vector<PrivacyPoint> points;
  for (const double eps : eps_grid) {
    PrivacyPoint pt;
    pt.epsilon = eps;
    const bool baseline = eps <= 0.0;
    ProbeAccumulator acc{&pt, ctx.result, baseline, cfg.tolerance};
    PointAverages avg;
    AttackConfig atk;
    atk.seed = cfg.seed ^ 0x6d756c7469ULL;  // decorrelate from the single-task axis
    atk.privacy.epsilon = eps;
    atk.privacy.mechanism = cfg.mechanism;

    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto truth = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + i);
      const auto noised = noised_reports(atk, truth, i);
      const auto outcome = ctx.run(noised);

      if (outcome.allocation.feasible) {
        record_ir(expected_utilities(truth, outcome), pt, *ctx.result, baseline,
                  cfg.tolerance);
        avg.sum_coverage += true_coverage(truth, outcome.allocation.winners);
        ++avg.coverage_samples;
        const auto honest = ctx.run(truth);
        if (honest.allocation.feasible && honest.allocation.total_cost > 0.0) {
          avg.sum_cost_ratio += outcome.allocation.total_cost / honest.allocation.total_cost;
          ++avg.cost_samples;
        }
        if (cfg.compute_opt) {
          const double opt = opt_cost(truth);
          if (std::isfinite(opt) && opt > 0.0) {
            avg.sum_opt_ratio += outcome.allocation.total_cost / opt;
            ++avg.opt_samples;
          }
        }
      } else {
        ++pt.infeasible_noised;
      }

      for (std::size_t u = 0; u < cfg.users; ++u) {
        const auto user = static_cast<auction::UserId>(u);
        const double u_truthful = utility_of(truth, outcome, user);
        const auto clean = replace_user(noised, user, truth.users[user]);
        const double u_clean = utility_of(truth, ctx.run(clean), user);
        const double true_total = truth.users[user].total_contribution();
        for (std::size_t trial = 0; trial < cfg.misreport_trials; ++trial) {
          auto dev_rng =
              attack_user_stream(cfg.seed, AttackAxis::kMisreport, (i << 16) | trial, user);
          // Deviate in contribution space (scale the whole declared vector),
          // then push the deviated vector through the SAME noise stream the
          // truthful report would have seen.
          const double scale = dev_rng.uniform(0.1, 1.9);
          auto deviated_bid =
              truth.with_declared_total_contribution(user, scale * true_total).users[user];
          if (!baseline) {
            auto noise = report_stream(atk, i, user);
            for (auto& pos : deviated_bid.pos) {
              pos = privatize_pos(pos, atk.privacy, noise);
            }
          }
          const auto deviated = replace_user(noised, user, deviated_bid);
          acc.record(utility_of(truth, ctx.run(deviated), user), u_truthful, u_clean);
        }
      }
    }
    finish_point(pt, acc, avg);
    points.push_back(pt);
  }
  return points;
}

std::vector<FailurePoint> failure_axis(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<geo::CellId> task_cells(cfg.tasks);
  for (std::size_t j = 0; j < cfg.tasks; ++j) {
    task_cells[j] = static_cast<geo::CellId>(j);
  }

  std::vector<FailurePoint> points;
  for (const double event_prob : cfg.event_probs) {
    FailurePoint pt;
    pt.event_prob = event_prob;
    pt.rounds = cfg.failure_rounds;
    AttackConfig atk;
    atk.seed = cfg.seed ^ 0x77656174686572ULL;
    atk.cell_failures.event_prob = event_prob;
    atk.cell_failures.cells = task_cells;
    const auto schedule = make_attack_schedule(atk, cfg.failure_rounds);

    double sum_coverage = 0.0;
    std::size_t hit = 0;
    std::size_t task_samples = 0;
    for (std::size_t r = 0; r < cfg.failure_rounds; ++r) {
      const auto& event = schedule.events[r];
      if (event.occurred) {
        ++pt.events;
      }
      const auto truth =
          hostile_multi_task(cfg.users, cfg.tasks, HostileShape::kRandom, cfg.seed + 7000 + r);
      const auto outcome = ctx.run(truth);
      if (!outcome.allocation.feasible) {
        continue;
      }
      for (std::size_t j = 0; j < cfg.tasks; ++j) {
        const auto task = static_cast<auction::TaskIndex>(j);
        const double achieved = achieved_pos_with_cell_failure(
            truth, outcome.allocation.winners, task, task_cells, event);
        const double required = truth.requirement_pos[j];
        sum_coverage += std::min(achieved / required, 1.0);
        if (common::approx_ge(achieved, required)) {
          ++hit;
        }
        ++task_samples;
      }
    }
    pt.mean_coverage = task_samples ? sum_coverage / task_samples : 0.0;
    pt.requirement_hit_rate = task_samples ? static_cast<double>(hit) / task_samples : 0.0;
    points.push_back(pt);
  }
  return points;
}

/// The first `size` winners of the truthful run, padded with the lowest-id
/// losers when the winner set is smaller than the coalition.
std::vector<auction::UserId> pick_members(const auction::Allocation& allocation,
                                          std::size_t size, std::size_t users) {
  std::vector<auction::UserId> members(
      allocation.winners.begin(),
      allocation.winners.begin() +
          static_cast<std::ptrdiff_t>(std::min(size, allocation.winners.size())));
  for (std::size_t u = 0; members.size() < size && u < users; ++u) {
    const auto id = static_cast<auction::UserId>(u);
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      members.push_back(id);
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<CollusionPoint> collusion_axis(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<CollusionPoint> points;

  for (const std::size_t size : cfg.coalition_sizes) {
    CollusionPoint pt;
    pt.kind = "coalition";
    pt.size = size;
    double sum_gain = 0.0;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto st = hostile_single_task(cfg.users, shape, cfg.seed + 9000 + i);
      const auto st_probe = probe_coalition_shading(
          st, pick_members(ctx.run(st).allocation, size, cfg.users), cfg.shade_grid,
          ctx.fast, cfg.tolerance);
      const auto mt = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + 9000 + i);
      const auto mt_probe = probe_coalition_shading(
          mt, pick_members(ctx.run(mt).allocation, size, cfg.users), cfg.shade_grid,
          ctx.fast, cfg.tolerance);
      for (const auto& probe : {st_probe, mt_probe}) {
        ++pt.probes;
        if (probe.profitable) {
          ++profitable;
          sum_gain += probe.gain;
          pt.max_gain = std::max(pt.max_gain, probe.gain);
        }
      }
    }
    pt.profitable_rate = pt.probes ? static_cast<double>(profitable) / pt.probes : 0.0;
    pt.mean_gain = profitable ? sum_gain / profitable : 0.0;
    points.push_back(pt);
  }

  for (const std::size_t clones : cfg.sybil_clones) {
    CollusionPoint pt;
    pt.kind = "sybil";
    pt.size = clones;
    double sum_gain = 0.0;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto st = hostile_single_task(cfg.users, shape, cfg.seed + 9500 + i);
      const auto st_out = ctx.run(st);
      const auto mt = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + 9500 + i);
      const auto mt_out = ctx.run(mt);
      std::vector<DeviationProbe> probes;
      if (!st_out.allocation.winners.empty()) {
        probes.push_back(probe_sybil_split(st, st_out.allocation.winners.front(), clones,
                                           ctx.fast, cfg.tolerance));
      }
      if (!mt_out.allocation.winners.empty()) {
        probes.push_back(probe_sybil_split(mt, mt_out.allocation.winners.front(), clones,
                                           ctx.fast, cfg.tolerance));
      }
      for (const auto& probe : probes) {
        ++pt.probes;
        if (probe.profitable) {
          ++profitable;
          sum_gain += probe.gain;
          pt.max_gain = std::max(pt.max_gain, probe.gain);
        }
      }
    }
    pt.profitable_rate = pt.probes ? static_cast<double>(profitable) / pt.probes : 0.0;
    pt.mean_gain = profitable ? sum_gain / profitable : 0.0;
    points.push_back(pt);
  }
  return points;
}

}  // namespace

SweepResult run_adversarial_sweep(const SweepConfig& config) {
  config.validate();
  SweepResult result;
  SweepContext ctx{config, fast_config(config), oracle_config(config), &result};
  result.single_task = privacy_axis_single(ctx);
  result.multi_task = privacy_axis_multi(ctx);
  result.failures = failure_axis(ctx);
  result.collusion = collusion_axis(ctx);
  return result;
}

SweepConfig quick_sweep_config() {
  SweepConfig cfg;
  cfg.instances = 2;
  cfg.users = 10;
  cfg.tasks = 4;
  cfg.misreport_trials = 1;
  cfg.epsilons = {0.5, 2.0};
  cfg.event_probs = {0.0, 0.5};
  cfg.failure_rounds = 8;
  cfg.coalition_sizes = {2};
  cfg.shade_grid = {0.5, 0.9, 1.25};
  cfg.sybil_clones = {2};
  return cfg;
}

}  // namespace mcs::sim
