// Byte-exact pins of both journal formats (mcs-journal-v1 and
// mcs-service-journal-v1). Journals outlive the code that wrote them: every
// byte a writer emits — the header and `config` prologue, each block's
// directive order and number spelling — is compared here against literal
// text, so a change to the writing code that would leave existing journals
// unreadable (or readable as something else) fails loudly.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "platform/journal.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"

namespace mcs {
namespace {

std::string file_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class FormatFixture : public ::testing::Test {
 protected:
  FormatFixture()
      : path_(std::filesystem::temp_directory_path() /
              ("mcs_journal_format_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal")) {
    std::filesystem::remove(path_);
  }
  ~FormatFixture() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

platform::JournalEntry platform_entry() {
  platform::JournalEntry entry;
  entry.report.round = 3;
  entry.report.held = true;
  entry.report.degraded = true;
  entry.report.winners = 2;
  entry.report.social_cost = 0.1 + 0.2;  // not exactly 0.3
  entry.report.payout = 12.5;
  entry.report.tasks_posted = 6;
  entry.report.tasks_completed = 5;
  entry.report.mean_required_pos = 0.6;
  entry.report.mean_achieved_pos = 0.75;
  entry.report.winning_taxis = {14, 37};
  entry.report.error = "deadline\nexceeded # not a comment";
  auto& t = entry.report.telemetry;
  t.enabled = true;
  t.winner_determination_seconds = 0.25;
  t.rewards_seconds = 1.0 / 3.0;
  t.degraded_events = 1;
  t.winner_determination = {.probes = 1, .deadline_polls = 2, .rounds = 3,
                            .heap_reevaluations = 4, .bisection_steps = 5};
  t.rewards = {.probes = 6, .deadline_polls = 7, .rounds = 8,
               .heap_reevaluations = 9, .bisection_steps = 10};
  entry.positions = {50, -1, 97};
  entry.rng_state = {1, 2, 18446744073709551615ULL, 42};
  entry.reputation = {{14, {.rounds = 3, .expected_successes = 2.5, .variance = 0.625,
                            .realized_successes = 2}}};
  return entry;
}

constexpr const char* kPlatformBlock =
    "begin round 3\n"
    "held 1\n"
    "degraded 1\n"
    "winners 2\n"
    "social_cost 0.30000000000000004\n"
    "payout 12.5\n"
    "tasks_posted 6\n"
    "tasks_completed 5\n"
    "mean_required_pos 0.59999999999999998\n"
    "mean_achieved_pos 0.75\n"
    "winning_taxis 2 14 37\n"
    "telemetry 0.25 0.33333333333333331 1 1 2 3 4 5 6 7 8 9 10\n"
    "error deadline exceeded # not a comment\n"
    "positions 3 50 -1 97\n"
    "rng 1 2 18446744073709551615 42\n"
    "reputation 1\n"
    "rep 14 3 2.5 0.625 2\n"
    "end round 3\n";

service::ServiceJournalRecord service_round() {
  service::ServiceJournalRecord record;
  record.round = 2;
  record.status = auction::AuctionStatus::kDegraded;
  record.users = 100;
  record.tasks = 12;
  record.shards_run = 4;
  record.straddlers = 3;
  record.outcome.allocation.feasible = true;
  record.outcome.degraded = true;
  record.outcome.allocation.winners = {1, 5, 9};
  record.outcome.allocation.total_cost = 37.25;
  record.outcome.uncovered_tasks = {3, 7};
  record.outcome.rewards = {{.user = 1, .critical_contribution = 0.5, .reward = {0.4, 12.5, 10.0}},
                            {.user = 5, .critical_contribution = 0.25, .reward = {0.1, 3.0, 10.0}}};
  record.error = "shard 1: boom\r\nretry";
  return record;
}

constexpr const char* kServiceRoundBlock =
    "begin round 2\n"
    "status degraded\n"
    "users 100\n"
    "tasks 12\n"
    "shards_run 4\n"
    "straddlers 3\n"
    "feasible 1\n"
    "degraded 1\n"
    "winners 3 1 5 9\n"
    "total_cost 37.25\n"
    "uncovered 2 3 7\n"
    "rewards 2\n"
    "reward 1 0.5 0.40000000000000002 12.5 10\n"
    "reward 5 0.25 0.10000000000000001 3 10\n"
    "error shard 1: boom  retry\n"
    "end round 2\n";

service::ServiceEpochRecord service_epoch() {
  service::ServiceEpochRecord record;
  record.epoch = 0;
  record.arrivals = {auction::online::Arrival{0, {3.5, 0.25}},
                     auction::online::Arrival{1, {1.5, 0.5}}};
  record.outcome.sample_size = 1;
  record.outcome.threshold_updates = 1;
  auction::online::ArrivalDecision sample;
  sample.arrival = 0;
  sample.user = 0;
  sample.threshold = std::numeric_limits<double>::infinity();
  sample.budget_remaining = 50.0;
  auction::online::ArrivalDecision accept;
  accept.arrival = 1;
  accept.user = 1;
  accept.phase = auction::online::ArrivalPhase::kAccept;
  accept.stage = 1;
  accept.accepted = true;
  accept.threshold = 0.125;
  accept.critical_contribution = 0.5;
  accept.reward = {0.25, 1.5, 10.0};
  accept.budget_remaining = 33.25;
  record.outcome.decisions = {sample, accept};
  record.outcome.total_cost = 1.5;
  record.outcome.worst_case_payout = 9.0;
  record.outcome.achieved_contribution = 0.5;
  record.outcome.achieved_pos = 0.5;
  record.outcome.requirement_met = true;
  record.outcome.winners = {1};
  return record;
}

constexpr const char* kServiceEpochBlock =
    "begin epoch 0\n"
    "status ok\n"
    "arrivals 2\n"
    "arrival 0 3.5 0.25\n"
    "arrival 1 1.5 0.5\n"
    "sample 1\n"
    "updates 1\n"
    "decisions 2\n"
    "decision 0 0 sample 0 0 inf 0 0 0 0 50\n"
    "decision 1 1 accept 1 1 0.125 0.5 0.25 1.5 10 33.25\n"
    "totals 1.5 9 0.5 0.5 1\n"
    "winners 1 1\n"
    "end epoch 0\n";

TEST(JournalFormat, PlatformBlockBytesArePinned) {
  EXPECT_EQ(platform::to_text(platform_entry()), kPlatformBlock);
}

TEST(JournalFormat, ServiceRoundBlockBytesArePinned) {
  EXPECT_EQ(service::to_text(service_round()), kServiceRoundBlock);
}

TEST(JournalFormat, ServiceEpochBlockBytesArePinned) {
  EXPECT_EQ(service::to_text(service_epoch()), kServiceEpochBlock);
}

TEST(JournalFormat, ConfigFingerprintsArePinned) {
  // The fingerprint is the journal's `config` line: a change in its
  // spelling refuses every journal written before it.
  EXPECT_EQ(platform::config_fingerprint(platform::CampaignConfig{}),
            "seed=1 tasks=12 bidders=60 pos=0.69999999999999996 cap=0.90000000000000002 "
            "alpha=10 rule=0 policy=0 zipf=1 avail=1 exec=1 budget=inf auction_seconds=0");
  EXPECT_EQ(service::service_config_fingerprint(service::ServiceConfig{}),
            "shards=1 shard_policy=0 alpha=10 auction_seconds=0 degrade=1 "
            "epsilon=0.10000000000000001 bisect_iters=48 rule=0 partial=0");
}

TEST_F(FormatFixture, FreshPlatformWriterEmitsHeaderConfigAndBlocks) {
  {
    platform::JournalWriter writer(path_, "seed=77 tasks=6");
    EXPECT_EQ(file_text(path_), "mcs-journal-v1\nconfig seed=77 tasks=6\n");
    writer.append(platform_entry());
  }
  EXPECT_EQ(file_text(path_),
            std::string("mcs-journal-v1\nconfig seed=77 tasks=6\n") + kPlatformBlock);
}

TEST_F(FormatFixture, FreshServiceWriterEmitsHeaderConfigAndBlocks) {
  const std::string prologue = "mcs-service-journal-v1\nconfig shards=4 policy=0\n";
  {
    service::ServiceJournalWriter writer(path_, "shards=4 policy=0");
    EXPECT_EQ(file_text(path_), prologue);
    auto round = service_round();
    round.round = 0;
    writer.append(round);
    writer.append(service_epoch());
  }
  std::string round_block = kServiceRoundBlock;
  round_block.replace(round_block.find("begin round 2"), 13, "begin round 0");
  round_block.replace(round_block.find("end round 2"), 11, "end round 0");
  EXPECT_EQ(file_text(path_), prologue + round_block + kServiceEpochBlock);
}

TEST_F(FormatFixture, FreshServiceJournalStartsWithTheServiceFingerprint) {
  service::ServiceConfig config;
  config.journal_path = path_;
  { service::CampaignService service{config}; }
  EXPECT_EQ(file_text(path_), "mcs-service-journal-v1\nconfig " +
                                  service::service_config_fingerprint(config) + "\n");
}

}  // namespace
}  // namespace mcs
