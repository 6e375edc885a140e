#include "platform/journal.hpp"

#include <sstream>
#include <string>

namespace mcs::platform {

namespace {

constexpr common::BlockLogFormat kFormat{"mcs-journal-v1", "campaign journal"};

using common::format_double;

/// Parses `round` blocks into `entries`.
common::BlockParser entry_parser(std::vector<JournalEntry>& entries) {
  return [&entries](const std::string& kind, std::uint64_t id, common::BlockReader& body) {
    if (kind != "round") {
      body.fail("unknown block kind '" + kind + "'");
    }
    JournalEntry entry;
    entry.report.round = id;
    bool have_rng = false;
    bool have_positions = false;
    std::size_t reputation_count = 0;
    bool have_reputation = false;
    while (!body.at_end()) {
      const auto& line = body.next();
      const auto& keyword = line.tokens.front();
      if (keyword == "held") {
        entry.report.held = body.single_flag(line);
      } else if (keyword == "degraded") {
        entry.report.degraded = body.single_flag(line);
      } else if (keyword == "winners") {
        entry.report.winners = body.single_count(line);
      } else if (keyword == "social_cost") {
        entry.report.social_cost = body.single_number(line);
      } else if (keyword == "payout") {
        entry.report.payout = body.single_number(line);
      } else if (keyword == "tasks_posted") {
        entry.report.tasks_posted = body.single_count(line);
      } else if (keyword == "tasks_completed") {
        entry.report.tasks_completed = body.single_count(line);
      } else if (keyword == "mean_required_pos") {
        entry.report.mean_required_pos = body.single_number(line);
      } else if (keyword == "mean_achieved_pos") {
        entry.report.mean_achieved_pos = body.single_number(line);
      } else if (keyword == "error") {
        entry.report.error = line.raw_text;
      } else if (keyword == "telemetry") {
        // Optional: blocks without this line (telemetry off, or written
        // before the record existed) leave the default disabled record.
        body.expect_tokens(line, 14,
                           "telemetry <wd_s> <rw_s> <degraded> <5 wd counters> <5 rw counters>");
        auto& t = entry.report.telemetry;
        t.enabled = true;
        t.winner_determination_seconds = body.number(line, 1);
        t.rewards_seconds = body.number(line, 2);
        t.degraded_events = body.count(line, 3);
        std::size_t k = 4;
        for (obs::PhaseCounters* phase : {&t.winner_determination, &t.rewards}) {
          phase->probes = body.count(line, k++);
          phase->deadline_polls = body.count(line, k++);
          phase->rounds = body.count(line, k++);
          phase->heap_reevaluations = body.count(line, k++);
          phase->bisection_steps = body.count(line, k++);
        }
      } else if (keyword == "winning_taxis") {
        entry.report.winning_taxis = body.id_list(line);
      } else if (keyword == "positions") {
        entry.positions = body.id_list(line);
        have_positions = true;
      } else if (keyword == "rng") {
        body.expect_tokens(line, 5, "rng <s0> <s1> <s2> <s3>");
        for (std::size_t k = 0; k < 4; ++k) {
          entry.rng_state[k] = body.count(line, 1 + k);
        }
        have_rng = true;
      } else if (keyword == "reputation") {
        reputation_count = body.single_count(line);
        have_reputation = true;
      } else if (keyword == "rep") {
        body.expect_tokens(line, 6, "rep <taxi> <rounds> <expected> <variance> <realized>");
        ReputationRecord record;
        record.rounds = body.count(line, 2);
        record.expected_successes = body.number(line, 3);
        record.variance = body.number(line, 4);
        record.realized_successes = body.count(line, 5);
        entry.reputation.emplace_back(body.id(line, 1), record);
      } else {
        body.fail(line, "unknown directive '" + keyword + "'");
      }
    }
    if (!have_positions || !have_rng || !have_reputation) {
      body.fail("block is missing its positions/rng/reputation snapshot");
    }
    if (entry.reputation.size() != reputation_count) {
      body.fail("reputation record count does not match the declared count");
    }
    entries.push_back(std::move(entry));
  };
}

/// The block-log resume sequence; the parsed journal lands in `replayed`
/// when it is non-null.
common::BlockLogWriter resume(const std::filesystem::path& path, const std::string& fingerprint,
                              ReplayedJournal* replayed) {
  ReplayedJournal discarded;
  ReplayedJournal& out = replayed != nullptr ? *replayed : discarded;
  common::BlockLogPrefix prefix;
  auto writer =
      common::resume_block_log(kFormat, path, fingerprint, entry_parser(out.entries), prefix);
  out.valid_bytes = prefix.valid_bytes;
  out.config = std::move(prefix.config);
  return writer;
}

}  // namespace

std::string to_text(const JournalEntry& entry) {
  std::ostringstream out;
  out << "begin round " << entry.report.round << "\n";
  out << "held " << (entry.report.held ? 1 : 0) << "\n";
  out << "degraded " << (entry.report.degraded ? 1 : 0) << "\n";
  out << "winners " << entry.report.winners << "\n";
  out << "social_cost " << format_double(entry.report.social_cost) << "\n";
  out << "payout " << format_double(entry.report.payout) << "\n";
  out << "tasks_posted " << entry.report.tasks_posted << "\n";
  out << "tasks_completed " << entry.report.tasks_completed << "\n";
  out << "mean_required_pos " << format_double(entry.report.mean_required_pos) << "\n";
  out << "mean_achieved_pos " << format_double(entry.report.mean_achieved_pos) << "\n";
  out << "winning_taxis " << entry.report.winning_taxis.size();
  for (trace::TaxiId taxi : entry.report.winning_taxis) {
    out << ' ' << taxi;
  }
  out << "\n";
  if (entry.report.telemetry.enabled) {
    // Optional record (PR 4): journals written with telemetry off — and
    // every pre-telemetry journal — simply omit the line, and readers
    // default the record to disabled, so old journals stay loadable.
    const auto& t = entry.report.telemetry;
    out << "telemetry " << format_double(t.winner_determination_seconds) << ' '
        << format_double(t.rewards_seconds) << ' ' << t.degraded_events;
    for (const obs::PhaseCounters* phase : {&t.winner_determination, &t.rewards}) {
      out << ' ' << phase->probes << ' ' << phase->deadline_polls << ' ' << phase->rounds << ' '
          << phase->heap_reevaluations << ' ' << phase->bisection_steps;
    }
    out << "\n";
  }
  if (!entry.report.error.empty()) {
    out << "error " << common::flatten_newlines(entry.report.error) << "\n";
  }
  out << "positions " << entry.positions.size();
  for (geo::CellId cell : entry.positions) {
    out << ' ' << cell;
  }
  out << "\n";
  out << "rng " << entry.rng_state[0] << ' ' << entry.rng_state[1] << ' ' << entry.rng_state[2]
      << ' ' << entry.rng_state[3] << "\n";
  out << "reputation " << entry.reputation.size() << "\n";
  for (const auto& [taxi, record] : entry.reputation) {
    out << "rep " << taxi << ' ' << record.rounds << ' '
        << format_double(record.expected_successes) << ' ' << format_double(record.variance)
        << ' ' << record.realized_successes << "\n";
  }
  out << "end round " << entry.report.round << "\n";
  return out.str();
}

std::string config_fingerprint(const CampaignConfig& config) {
  std::ostringstream out;
  out << "seed=" << config.seed                                              //
      << " tasks=" << config.num_tasks                                       //
      << " bidders=" << config.num_bidders                                   //
      << " pos=" << format_double(config.pos_requirement)                    //
      << " cap=" << format_double(config.requirement_cap_fraction)           //
      << " alpha=" << format_double(config.alpha)                            //
      << " rule=" << static_cast<int>(config.critical_bid_rule)              //
      << " policy=" << static_cast<int>(config.task_policy)                  //
      << " zipf=" << format_double(config.demand_zipf_exponent)              //
      << " avail=" << format_double(config.availability)                     //
      << " exec=" << static_cast<int>(config.execution)                      //
      << " budget=" << format_double(config.budget)                          //
      << " auction_seconds=" << format_double(config.auction_time_budget_seconds);
  if (config.shards != 1) {
    // Only non-default so every pre-sharding journal (implicitly shards=1)
    // keeps resuming: sharded rounds can differ once users straddle shards,
    // so splicing across shard counts must be refused.
    out << " shards=" << config.shards;
  }
  return out.str();
}

ReplayedJournal parse_journal(const std::string& text) {
  ReplayedJournal replayed;
  auto prefix =
      common::parse_block_log(kFormat, text, entry_parser(replayed.entries), common::BlockIds::kAny);
  replayed.valid_bytes = prefix.valid_bytes;
  replayed.config = std::move(prefix.config);
  return replayed;
}

std::vector<JournalEntry> journal_from_text(const std::string& text) {
  return parse_journal(text).entries;
}

ReplayedJournal load_journal(const std::filesystem::path& path) {
  return parse_journal(common::read_block_log(kFormat, path));
}

std::vector<JournalEntry> replay_journal(const std::filesystem::path& path) {
  return load_journal(path).entries;
}

JournalWriter::JournalWriter(const std::filesystem::path& path,
                             const std::string& config_fingerprint, ReplayedJournal* replayed)
    : writer_(resume(path, config_fingerprint, replayed)) {}

void JournalWriter::append(const JournalEntry& entry) { writer_.append(to_text(entry)); }

}  // namespace mcs::platform
