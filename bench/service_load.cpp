// Load generator for the geo-sharded campaign service (ISSUE-6): drives
// sustained submit/wait traffic through service::CampaignService at
// n >= 100k users per round and records per-round p50/p99 compute latency
// and rounds/sec for a sweep of shard counts into
// bench/results/sharded_scaling.json.
//
// The workload is residue-pure by construction — task j sits in cell j and
// every user's task set stays inside ONE residue class mod the largest shard
// count — so every swept shard count divides the class modulus, no user ever
// straddles shards, and the shard.hpp determinism contract applies: every
// sharded run must produce outcomes bit-identical to the flat (1-shard) run,
// which this binary asserts round by round. The measured speedup is therefore
// an honest same-answer comparison, and on a single-core host it is purely
// algorithmic: sharding shrinks every per-winner without-i greedy solve from
// n users to ~n/S, which dominates the reward phase (DESIGN.md §11).
//
// Usage: service_load [--users N] [--tasks T] [--rounds R]
//                     [--shards S1,S2,...] [--chunk C] [--out FILE]
// The JSON record also goes to stdout and, when MCS_BENCH_JSON names a file,
// to that file (the bench/results convention).
//
// --chunk C streams the campaign instead of materializing it: rounds are
// generated, submitted, and drained C at a time, and only a per-round digest
// (winner ids + total cost) is retained for the cross-shard bit-identity
// check — peak memory is one chunk of rounds regardless of --rounds. Round
// generation is seeded per round index, so chunked and materialized runs
// drive byte-identical traffic. --chunk 0 (default) keeps the one-big-batch
// behaviour.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/service.hpp"

namespace {

using namespace mcs;

struct Options {
  std::size_t users = 100000;
  std::size_t tasks = 128;
  std::size_t rounds = 6;
  std::vector<std::size_t> shard_counts = {1, 4, 16};
  std::size_t chunk = 0;  ///< rounds in flight at once; 0 = all of them
  std::string out;
};

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> values;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    values.push_back(static_cast<std::size_t>(std::stoull(token)));
  }
  return values;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string value = argv[k + 1];
    if (flag == "--users") {
      options.users = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--tasks") {
      options.tasks = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--rounds") {
      options.rounds = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--shards") {
      options.shard_counts = parse_list(value);
    } else if (flag == "--chunk") {
      options.chunk = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--out") {
      options.out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  return options;
}

/// One campaign round, residue-pure mod `groups`: task j in cell j, each
/// user's tasks all ≡ her group (mod groups). Requirements and PoS are tuned
/// so a round stays feasible with a winner set small enough that the reward
/// phase — winners × one (resumed) without-i greedy each — dominates, which
/// is the regime sharding accelerates.
service::GeoRound make_round(const Options& options, std::size_t groups, std::uint64_t seed) {
  service::GeoRound round;
  round.instance.requirement_pos.assign(options.tasks, 0.35);
  round.task_cells.reserve(options.tasks);
  for (std::size_t j = 0; j < options.tasks; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  common::Rng rng(seed);
  round.instance.users.reserve(options.users);
  for (std::size_t i = 0; i < options.users; ++i) {
    auction::MultiTaskUserBid bid;
    bid.cost = rng.uniform(5.0, 25.0);
    const auto group = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(groups) - 1));
    for (std::size_t j = group; j < options.tasks; j += groups) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        bid.tasks.push_back(static_cast<auction::TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.1, 0.5));
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(static_cast<auction::TaskIndex>(group));
      bid.pos.push_back(rng.uniform(0.1, 0.5));
    }
    round.instance.users.push_back(std::move(bid));
  }
  return round;
}

double percentile(std::vector<double> sorted_values, double p) {
  std::sort(sorted_values.begin(), sorted_values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_values.size() - 1) + 0.5);
  return sorted_values[std::min(rank, sorted_values.size() - 1)];
}

struct SweepResult {
  std::size_t shards = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rounds_per_sec = 0.0;
  std::size_t winners = 0;  ///< round 0's winner count (identical across sweeps)
};

/// What the cross-shard bit-identity check needs from one round — keeping
/// the digest instead of the full RoundOutcome is what lets the chunked mode
/// bound memory by the chunk size.
struct RoundDigest {
  std::vector<auction::UserId> winners;
  double total_cost = 0.0;
};

int run(const Options& options) {
  const std::size_t groups =
      *std::max_element(options.shard_counts.begin(), options.shard_counts.end());
  const std::size_t chunk =
      options.chunk == 0 ? options.rounds : std::min(options.chunk, options.rounds);
  std::cerr << "driving " << options.rounds << " rounds of " << options.users << " users x "
            << options.tasks << " tasks (residue-pure mod " << groups << ", " << chunk
            << " in flight)\n";

  std::vector<SweepResult> sweeps;
  std::vector<RoundDigest> baseline;  // the flat (first) sweep's digests
  for (const std::size_t shard_count : options.shard_counts) {
    service::ServiceConfig config;
    config.shards = service::ShardMap(shard_count);
    config.queue_capacity = chunk;  // queue a full chunk: latency is compute-only
    service::CampaignService campaign_service(config);

    std::cerr << "shards=" << shard_count << ": ";
    std::vector<double> latencies;
    std::vector<RoundDigest> digests;
    std::size_t round0_winners = 0;
    double elapsed_seconds = 0.0;
    std::vector<service::GeoRound> rounds;
    rounds.reserve(chunk);
    for (std::size_t begin = 0; begin < options.rounds; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, options.rounds);
      // Per-round seeds keep chunked and materialized traffic identical.
      rounds.clear();
      for (std::size_t r = begin; r < end; ++r) {
        rounds.push_back(make_round(options, groups, 1000 + r));
      }
      const auto start = std::chrono::steady_clock::now();
      for (const auto& round : rounds) {
        campaign_service.submit_round(round);
      }
      std::vector<service::RoundOutcome> outcomes;
      for (std::size_t r = begin; r < end; ++r) {
        outcomes.push_back(campaign_service.wait_outcome(r));
      }
      const std::chrono::duration<double> span = std::chrono::steady_clock::now() - start;
      elapsed_seconds += span.count();

      for (const auto& outcome : outcomes) {
        if (!outcome.ok()) {
          std::cerr << "round " << outcome.round << " failed: " << outcome.error << "\n";
          return 1;
        }
        if (outcome.straddlers != 0) {
          std::cerr << "round " << outcome.round << " had " << outcome.straddlers
                    << " straddlers; the workload must be residue-pure\n";
          return 1;
        }
        latencies.push_back(outcome.latency_seconds);
        digests.push_back({outcome.outcome.allocation.winners,
                           outcome.outcome.allocation.total_cost});
        if (outcome.round == 0) {
          round0_winners = outcome.outcome.allocation.winners.size();
        }
      }
    }
    // The determinism contract makes the sweeps comparable: every shard
    // count must produce the flat run's outcome bit for bit.
    if (baseline.empty()) {
      baseline = std::move(digests);
    } else {
      for (std::size_t r = 0; r < digests.size(); ++r) {
        if (baseline[r].winners != digests[r].winners ||
            baseline[r].total_cost != digests[r].total_cost) {
          std::cerr << "round " << r << " diverged from the flat run at shards="
                    << shard_count << "\n";
          return 1;
        }
      }
    }

    SweepResult sweep;
    sweep.shards = shard_count;
    sweep.p50_ms = percentile(latencies, 0.50) * 1e3;
    sweep.p99_ms = percentile(latencies, 0.99) * 1e3;
    sweep.rounds_per_sec = static_cast<double>(options.rounds) / elapsed_seconds;
    sweep.winners = round0_winners;
    sweeps.push_back(sweep);
    std::cerr << "p50 " << sweep.p50_ms << " ms, p99 " << sweep.p99_ms << " ms, "
              << sweep.rounds_per_sec << " rounds/sec\n";
  }

  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::ostringstream json;
  json << "{\"bench\":\"sharded_service_scaling\",\"users\":" << options.users
       << ",\"tasks\":" << options.tasks << ",\"rounds\":" << options.rounds
       << ",\"available_cores\":" << cores << ",\"results\":[";
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    const auto& sweep = sweeps[k];
    json << (k > 0 ? "," : "") << "{\"shards\":" << sweep.shards
         << ",\"p50_latency_ms\":" << sweep.p50_ms << ",\"p99_latency_ms\":" << sweep.p99_ms
         << ",\"rounds_per_sec\":" << sweep.rounds_per_sec
         << ",\"round0_winners\":" << sweep.winners << ",\"straddlers\":0}";
  }
  json << "],\"outcomes\":\"bit-identical across all shard counts\"";
  if (sweeps.size() > 1 && sweeps.front().shards == 1 && sweeps.front().p50_ms > 0.0) {
    json << ",\"speedup_p50_" << sweeps.back().shards
         << "_vs_1\":" << sweeps.front().p50_ms / sweeps.back().p50_ms;
  }
  if (cores == 1) {
    json << ",\"speedup_note\":\"single-core host: the gain is algorithmic (per-winner "
            "without-i solves shrink from n to ~n/S users), not thread parallelism\"";
  }
  json << "}";

  std::cout << json.str() << "\n";
  for (const std::string& path : {options.out, [] {
         const char* env = std::getenv("MCS_BENCH_JSON");
         return std::string(env != nullptr ? env : "");
       }()}) {
    if (path.empty()) {
      continue;
    }
    std::ofstream out(path, std::ios::app);
    out << json.str() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_options(argc, argv)); }
