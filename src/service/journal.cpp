#include "service/journal.hpp"

#include <sstream>

namespace mcs::service {

namespace {

constexpr common::BlockLogFormat kFormat{"mcs-service-journal-v1", "service journal"};

using common::BlockLogLine;
using common::BlockReader;
using common::format_double;

auction::AuctionStatus parse_status(BlockReader& body) {
  const BlockLogLine& line = body.expect("status");
  body.expect_tokens(line, 2, "status <value>");
  for (const auto status :
       {auction::AuctionStatus::kOk, auction::AuctionStatus::kDegraded,
        auction::AuctionStatus::kTimedOut, auction::AuctionStatus::kFailed}) {
    if (line.tokens[1] == auction::to_string(status)) {
      return status;
    }
  }
  body.fail(line, "unknown status '" + line.tokens[1] + "'");
}

/// The optional trailing `error` line.
std::string parse_error(BlockReader& body) {
  if (body.at_end() || body.peek().tokens.front() != "error") {
    return {};
  }
  return body.next().raw_text;
}

ServiceJournalRecord parse_round_body(BlockReader& body, std::uint64_t id) {
  ServiceJournalRecord record;
  record.round = id;
  record.status = parse_status(body);
  record.users = body.expect_count("users");
  record.tasks = body.expect_count("tasks");
  record.shards_run = body.expect_count("shards_run");
  record.straddlers = body.expect_count("straddlers");
  record.outcome.allocation.feasible = body.single_flag(body.expect("feasible"));
  record.outcome.degraded = body.single_flag(body.expect("degraded"));
  record.outcome.allocation.winners = body.id_list(body.expect("winners"));
  record.outcome.allocation.total_cost = body.single_number(body.expect("total_cost"));
  record.outcome.uncovered_tasks = body.id_list(body.expect("uncovered"));
  const std::size_t reward_count = body.expect_count("rewards");
  for (std::size_t k = 0; k < reward_count; ++k) {
    const BlockLogLine& line = body.expect("reward");
    body.expect_tokens(line, 6, "reward <user> <q> <p> <cost> <alpha>");
    auction::WinnerReward reward;
    reward.user = body.id(line, 1);
    reward.critical_contribution = body.number(line, 2);
    reward.reward.critical_pos = body.number(line, 3);
    reward.reward.cost = body.number(line, 4);
    reward.reward.alpha = body.number(line, 5);
    record.outcome.rewards.push_back(reward);
  }
  record.error = parse_error(body);
  return record;
}

ServiceEpochRecord parse_epoch_body(BlockReader& body, std::uint64_t id) {
  ServiceEpochRecord record;
  record.epoch = id;
  record.status = parse_status(body);
  const std::size_t arrival_count = body.expect_count("arrivals");
  for (std::size_t k = 0; k < arrival_count; ++k) {
    const BlockLogLine& line = body.expect("arrival");
    body.expect_tokens(line, 4, "arrival <user> <cost> <pos>");
    auction::online::Arrival arrival;
    arrival.user = body.id(line, 1);
    arrival.bid.cost = body.number(line, 2);
    arrival.bid.pos = body.number(line, 3);
    record.arrivals.push_back(arrival);
  }
  record.outcome.sample_size = body.expect_count("sample");
  record.outcome.threshold_updates = body.expect_count("updates");
  const std::size_t decision_count = body.expect_count("decisions");
  for (std::size_t k = 0; k < decision_count; ++k) {
    const BlockLogLine& line = body.expect("decision");
    body.expect_tokens(line, 12,
                       "decision <arrival> <user> sample|accept <stage> 0|1 "
                       "<threshold> <qbar> <pbar> <cost> <alpha> <remaining>");
    auction::online::ArrivalDecision decision;
    decision.arrival = static_cast<std::size_t>(body.count(line, 1));
    decision.user = body.id(line, 2);
    if (line.tokens[3] == "sample") {
      decision.phase = auction::online::ArrivalPhase::kSample;
    } else if (line.tokens[3] == "accept") {
      decision.phase = auction::online::ArrivalPhase::kAccept;
    } else {
      body.fail(line, "unknown arrival phase '" + line.tokens[3] + "'");
    }
    decision.stage = static_cast<std::size_t>(body.count(line, 4));
    decision.accepted = body.flag(line, 5);
    decision.threshold = body.number(line, 6);
    decision.critical_contribution = body.number(line, 7);
    decision.reward.critical_pos = body.number(line, 8);
    decision.reward.cost = body.number(line, 9);
    decision.reward.alpha = body.number(line, 10);
    decision.budget_remaining = body.number(line, 11);
    record.outcome.decisions.push_back(decision);
  }
  {
    const BlockLogLine& line = body.expect("totals");
    body.expect_tokens(line, 6, "totals <cost> <worst_case> <q> <pos> 0|1");
    record.outcome.total_cost = body.number(line, 1);
    record.outcome.worst_case_payout = body.number(line, 2);
    record.outcome.achieved_contribution = body.number(line, 3);
    record.outcome.achieved_pos = body.number(line, 4);
    record.outcome.requirement_met = body.flag(line, 5);
  }
  record.outcome.winners = body.id_list(body.expect("winners"));
  record.outcome.accepted = record.outcome.winners.size();
  record.error = parse_error(body);
  return record;
}

/// Parses `round` and `epoch` blocks into `journal`.
common::BlockParser record_parser(ReplayedServiceJournal& journal) {
  return [&journal](const std::string& kind, std::uint64_t id, BlockReader& body) {
    if (kind == "round") {
      auto record = parse_round_body(body, id);
      body.expect_done();
      journal.records.push_back(std::move(record));
    } else if (kind == "epoch") {
      auto record = parse_epoch_body(body, id);
      body.expect_done();
      journal.epochs.push_back(std::move(record));
    } else {
      body.fail("unknown block kind '" + kind + "'");
    }
  };
}

/// The block-log resume sequence; the parsed journal lands in `replayed`
/// when it is non-null.
common::BlockLogWriter resume(const std::filesystem::path& path, const std::string& fingerprint,
                              ReplayedServiceJournal* replayed) {
  ReplayedServiceJournal discarded;
  ReplayedServiceJournal& out = replayed != nullptr ? *replayed : discarded;
  common::BlockLogPrefix prefix;
  auto writer = common::resume_block_log(kFormat, path, fingerprint, record_parser(out), prefix);
  out.valid_bytes = prefix.valid_bytes;
  out.config = std::move(prefix.config);
  return writer;
}

}  // namespace

std::string to_text(const ServiceJournalRecord& record) {
  std::ostringstream out;
  out << "begin round " << record.round << "\n";
  out << "status " << auction::to_string(record.status) << "\n";
  out << "users " << record.users << "\n";
  out << "tasks " << record.tasks << "\n";
  out << "shards_run " << record.shards_run << "\n";
  out << "straddlers " << record.straddlers << "\n";
  out << "feasible " << (record.outcome.allocation.feasible ? 1 : 0) << "\n";
  out << "degraded " << (record.outcome.degraded ? 1 : 0) << "\n";
  out << "winners " << record.outcome.allocation.winners.size();
  for (auction::UserId winner : record.outcome.allocation.winners) {
    out << ' ' << winner;
  }
  out << "\n";
  out << "total_cost " << format_double(record.outcome.allocation.total_cost) << "\n";
  out << "uncovered " << record.outcome.uncovered_tasks.size();
  for (auction::TaskIndex task : record.outcome.uncovered_tasks) {
    out << ' ' << task;
  }
  out << "\n";
  out << "rewards " << record.outcome.rewards.size() << "\n";
  for (const auto& reward : record.outcome.rewards) {
    out << "reward " << reward.user << ' ' << format_double(reward.critical_contribution) << ' '
        << format_double(reward.reward.critical_pos) << ' ' << format_double(reward.reward.cost)
        << ' ' << format_double(reward.reward.alpha) << "\n";
  }
  if (!record.error.empty()) {
    out << "error " << common::flatten_newlines(record.error) << "\n";
  }
  out << "end round " << record.round << "\n";
  return out.str();
}

std::string to_text(const ServiceEpochRecord& record) {
  std::ostringstream out;
  out << "begin epoch " << record.epoch << "\n";
  out << "status " << auction::to_string(record.status) << "\n";
  out << "arrivals " << record.arrivals.size() << "\n";
  for (const auto& arrival : record.arrivals) {
    out << "arrival " << arrival.user << ' ' << format_double(arrival.bid.cost) << ' '
        << format_double(arrival.bid.pos) << "\n";
  }
  out << "sample " << record.outcome.sample_size << "\n";
  out << "updates " << record.outcome.threshold_updates << "\n";
  out << "decisions " << record.outcome.decisions.size() << "\n";
  for (const auto& decision : record.outcome.decisions) {
    out << "decision " << decision.arrival << ' ' << decision.user << ' '
        << (decision.phase == auction::online::ArrivalPhase::kSample ? "sample" : "accept") << ' '
        << decision.stage << ' ' << (decision.accepted ? 1 : 0) << ' '
        << format_double(decision.threshold) << ' '
        << format_double(decision.critical_contribution) << ' '
        << format_double(decision.reward.critical_pos) << ' '
        << format_double(decision.reward.cost) << ' ' << format_double(decision.reward.alpha)
        << ' ' << format_double(decision.budget_remaining) << "\n";
  }
  out << "totals " << format_double(record.outcome.total_cost) << ' '
      << format_double(record.outcome.worst_case_payout) << ' '
      << format_double(record.outcome.achieved_contribution) << ' '
      << format_double(record.outcome.achieved_pos) << ' '
      << (record.outcome.requirement_met ? 1 : 0) << "\n";
  out << "winners " << record.outcome.winners.size();
  for (auction::UserId winner : record.outcome.winners) {
    out << ' ' << winner;
  }
  out << "\n";
  if (!record.error.empty()) {
    out << "error " << common::flatten_newlines(record.error) << "\n";
  }
  out << "end epoch " << record.epoch << "\n";
  return out.str();
}

ReplayedServiceJournal parse_service_journal(const std::string& text) {
  ReplayedServiceJournal journal;
  auto prefix = common::parse_block_log(kFormat, text, record_parser(journal),
                                        common::BlockIds::kContiguous);
  journal.valid_bytes = prefix.valid_bytes;
  journal.config = std::move(prefix.config);
  return journal;
}

ReplayedServiceJournal load_service_journal(const std::filesystem::path& path) {
  return parse_service_journal(common::read_block_log(kFormat, path));
}

ServiceJournalWriter::ServiceJournalWriter(const std::filesystem::path& path,
                                           const std::string& config_fingerprint,
                                           ReplayedServiceJournal* replayed)
    : writer_(resume(path, config_fingerprint, replayed)) {}

void ServiceJournalWriter::set_fault_injector(
    std::shared_ptr<const common::FaultInjector> injector) {
  fault_injector_ = std::move(injector);
}

void ServiceJournalWriter::append(const ServiceJournalRecord& record) {
  append_text(to_text(record), record.round);
}

void ServiceJournalWriter::append(const ServiceEpochRecord& record) {
  // Epochs share the kJournalAppend stream space with rounds (stream ==
  // epoch id): a chaos spec targeting stream N hits round N and epoch N
  // alike, which is what the injection tests want.
  append_text(to_text(record), record.epoch);
}

void ServiceJournalWriter::append_text(const std::string& text, std::uint64_t fault_stream) {
  // The fault fires BEFORE any byte reaches the file, modelling a full-disk
  // or I/O error on the append; the on-disk journal stays a valid prefix.
  common::fault_point(fault_injector_.get(), common::FailPoint::kJournalAppend, fault_stream, 0);
  writer_.append(text);
}

}  // namespace mcs::service
