// The CampaignService online ingestion path: submit_arrival/flush_epoch
// semantics (tickets, auto-flush, empty flush), poll/wait_epoch exactly-once
// delivery with fail-fast id validation, equivalence of a served epoch to a
// direct run_online_mechanism call, epoch journaling (text round-trip,
// restart replay, arrival echo check, fingerprint gating), and interleaving
// with the round pipeline.
#include "service/service.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "auction/online/mechanism.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "service/journal.hpp"
#include "test_util.hpp"

namespace mcs::service {
namespace {

ServiceConfig online_config() {
  ServiceConfig config;
  config.online.enabled = true;
  config.online.mechanism.budget = 45.0;
  config.online.mechanism.sample_fraction = 0.25;
  config.online.mechanism.stages = 2;
  config.online.requirement_pos = 0.85;
  return config;
}

/// Deterministic arrival feed shared by the service and the direct-run
/// comparisons.
std::vector<auction::SingleTaskBid> arrival_feed(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<auction::SingleTaskBid> bids;
  bids.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    bids.push_back({rng.uniform(1.0, 10.0), rng.uniform(0.05, 0.8)});
  }
  return bids;
}

class EpochJournalFixture : public ::testing::Test {
 protected:
  EpochJournalFixture() {
    journal_path_ =
        std::filesystem::temp_directory_path() /
        ("mcs_epoch_journal_" +
         std::to_string(::getpid()) + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal");
    std::filesystem::remove(journal_path_);
  }
  ~EpochJournalFixture() override { std::filesystem::remove(journal_path_); }

  std::filesystem::path journal_path_;
};

TEST(ServiceOnlineApi, DisabledServiceRefusesArrivals) {
  CampaignService service{ServiceConfig{}};
  EXPECT_THROW(service.submit_arrival({1.0, 0.5}), common::PreconditionError);
  EXPECT_THROW(service.flush_epoch(), common::PreconditionError);
}

TEST(ServiceOnlineApi, TicketsCountWithinTheOpenEpochAndFlushSeals) {
  CampaignService service{online_config()};
  const auto feed = arrival_feed(8, 5);
  for (std::size_t k = 0; k < feed.size(); ++k) {
    const auto ticket = service.submit_arrival(feed[k]);
    EXPECT_EQ(ticket.epoch, 0u);
    EXPECT_EQ(ticket.index, k);
  }
  const auto epoch = service.flush_epoch();
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 0u);
  // The next arrival opens epoch 1; an empty flush is a no-op.
  EXPECT_FALSE(service.flush_epoch().has_value());
  const auto next = service.submit_arrival({2.0, 0.4});
  EXPECT_EQ(next.epoch, 1u);
  EXPECT_EQ(next.index, 0u);

  const auto outcome = service.wait_epoch(*epoch);
  EXPECT_EQ(outcome.epoch, 0u);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.outcome.decisions.size(), feed.size());
  const auto stats = service.stats();
  EXPECT_EQ(stats.arrivals_submitted, feed.size() + 1);
  EXPECT_EQ(stats.epochs_flushed, 1u);
  EXPECT_EQ(stats.epochs_completed, 1u);
}

TEST(ServiceOnlineApi, EpochMatchesDirectMechanismRun) {
  CampaignService service{online_config()};
  const auto feed = arrival_feed(30, 9);
  for (const auto& bid : feed) {
    service.submit_arrival(bid);
  }
  const auto epoch = service.flush_epoch();
  ASSERT_TRUE(epoch.has_value());
  const auto served = service.wait_epoch(*epoch);
  ASSERT_TRUE(served.ok());

  std::vector<auction::online::Arrival> arrivals;
  for (std::size_t k = 0; k < feed.size(); ++k) {
    arrivals.push_back(auction::online::Arrival{static_cast<auction::UserId>(k), feed[k]});
  }
  const auction::online::ArrivalStream stream(0.85, arrivals);
  const auto direct =
      auction::online::run_online_mechanism(stream, online_config().online.mechanism);
  EXPECT_EQ(served.outcome.winners, direct.winners);
  EXPECT_EQ(served.outcome.worst_case_payout, direct.worst_case_payout);
  EXPECT_EQ(served.outcome.total_cost, direct.total_cost);
  ASSERT_EQ(served.outcome.decisions.size(), direct.decisions.size());
  for (std::size_t k = 0; k < direct.decisions.size(); ++k) {
    EXPECT_EQ(served.outcome.decisions[k].accepted, direct.decisions[k].accepted) << k;
    EXPECT_EQ(served.outcome.decisions[k].threshold, direct.decisions[k].threshold) << k;
  }
}

TEST(ServiceOnlineApi, EpochIdsFailFastOnNeverFlushedAndRedelivered) {
  CampaignService service{online_config()};
  service.submit_arrival({1.0, 0.5});
  const auto epoch = service.flush_epoch();
  ASSERT_TRUE(epoch.has_value());
  // Never-flushed ids throw immediately instead of blocking forever.
  try {
    service.wait_epoch(41);
    FAIL() << "wait_epoch(41) should have thrown";
  } catch (const common::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("41"), std::string::npos)
        << "error should name the offending id: " << e.what();
  }
  EXPECT_THROW(service.poll_epoch(7), common::PreconditionError);
  const auto outcome = service.wait_epoch(*epoch);
  EXPECT_EQ(outcome.epoch, *epoch);
  // Exactly-once: the second delivery throws, on both verbs.
  EXPECT_THROW(service.wait_epoch(*epoch), common::PreconditionError);
  EXPECT_THROW(service.poll_epoch(*epoch), common::PreconditionError);
}

TEST(ServiceOnlineApi, AutoFlushSealsAtMaxEpochArrivals) {
  auto config = online_config();
  config.online.max_epoch_arrivals = 4;
  CampaignService service{config};
  for (std::size_t k = 0; k < 10; ++k) {
    const auto ticket = service.submit_arrival({1.0 + static_cast<double>(k), 0.3});
    EXPECT_EQ(ticket.epoch, k / 4) << "arrival " << k;
    EXPECT_EQ(ticket.index, k % 4) << "arrival " << k;
  }
  // Two full epochs auto-flushed; two arrivals remain open.
  const auto first = service.wait_epoch(0);
  const auto second = service.wait_epoch(1);
  EXPECT_EQ(first.outcome.decisions.size(), 4u);
  EXPECT_EQ(second.outcome.decisions.size(), 4u);
  EXPECT_EQ(service.stats().epochs_flushed, 2u);
  const auto third = service.flush_epoch();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(service.wait_epoch(*third).outcome.decisions.size(), 2u);
}

TEST(ServiceOnlineApi, RoundsAndEpochsInterleaveIndependently) {
  auto config = online_config();
  CampaignService service{config};
  GeoRound round;
  round.instance = test::random_multi_task(10, 3, 0.5, 21);
  const auto round_id = service.submit_round(std::move(round));
  for (const auto& bid : arrival_feed(6, 3)) {
    service.submit_arrival(bid);
  }
  const auto epoch = service.flush_epoch();
  ASSERT_TRUE(epoch.has_value());
  service.drain();
  EXPECT_TRUE(service.poll_outcome(round_id).has_value());
  EXPECT_TRUE(service.poll_epoch(*epoch).has_value());
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.epochs_completed, 1u);
}

TEST(EpochJournal, RecordRoundTripsThroughText) {
  ServiceEpochRecord record;
  record.epoch = 0;
  record.arrivals = {auction::online::Arrival{0, {1.5, 0.25}},
                     auction::online::Arrival{1, {2.25, 0.625}}};
  const auction::online::ArrivalStream stream(0.8, record.arrivals);
  auction::online::OnlineConfig config;
  config.budget = 20.0;
  record.outcome = auction::online::run_online_mechanism(stream, config);
  record.error = "multi\nline";

  // Parse as a full journal (header + config + the block).
  const std::string text =
      "mcs-service-journal-v1\nconfig test\n" + to_text(record);
  const auto replayed = parse_service_journal(text);
  ASSERT_EQ(replayed.epochs.size(), 1u);
  const auto& parsed = replayed.epochs[0];
  EXPECT_EQ(parsed.epoch, 0u);
  ASSERT_EQ(parsed.arrivals.size(), record.arrivals.size());
  for (std::size_t k = 0; k < record.arrivals.size(); ++k) {
    EXPECT_EQ(parsed.arrivals[k].user, record.arrivals[k].user);
    EXPECT_EQ(parsed.arrivals[k].bid.cost, record.arrivals[k].bid.cost);
    EXPECT_EQ(parsed.arrivals[k].bid.pos, record.arrivals[k].bid.pos);
  }
  ASSERT_EQ(parsed.outcome.decisions.size(), record.outcome.decisions.size());
  for (std::size_t k = 0; k < record.outcome.decisions.size(); ++k) {
    EXPECT_EQ(parsed.outcome.decisions[k].accepted, record.outcome.decisions[k].accepted);
    EXPECT_EQ(parsed.outcome.decisions[k].threshold, record.outcome.decisions[k].threshold)
        << "threshold (possibly +inf) must round-trip exactly, slot " << k;
    EXPECT_EQ(parsed.outcome.decisions[k].budget_remaining,
              record.outcome.decisions[k].budget_remaining);
  }
  EXPECT_EQ(parsed.outcome.worst_case_payout, record.outcome.worst_case_payout);
  EXPECT_EQ(parsed.outcome.winners, record.outcome.winners);
  EXPECT_EQ(parsed.error, "multi line");  // newlines flatten, as round errors do
}

TEST(EpochJournal, RoundOnlyJournalsStillParse) {
  // Backward compatibility: a journal with no epoch blocks (every journal
  // written before online ingestion existed) parses with empty epochs.
  ServiceJournalRecord round;
  round.round = 0;
  round.users = 2;
  round.tasks = 1;
  const std::string text = "mcs-service-journal-v1\nconfig x\n" + to_text(round);
  const auto replayed = parse_service_journal(text);
  EXPECT_EQ(replayed.records.size(), 1u);
  EXPECT_TRUE(replayed.epochs.empty());
}

TEST(EpochJournal, NonContiguousEpochsThrow) {
  ServiceEpochRecord record;
  record.epoch = 1;  // journals must start at epoch 0
  EXPECT_THROW(
      parse_service_journal("mcs-service-journal-v1\nconfig x\n" + to_text(record)),
      common::PreconditionError);
}

TEST_F(EpochJournalFixture, RestartReplaysEpochsBitIdentically) {
  auto config = online_config();
  config.journal_path = journal_path_;
  const auto feed_a = arrival_feed(20, 31);
  const auto feed_b = arrival_feed(14, 32);

  EpochOutcome original_a;
  EpochOutcome original_b;
  {
    CampaignService service{config};
    for (const auto& bid : feed_a) {
      service.submit_arrival(bid);
    }
    service.flush_epoch();
    for (const auto& bid : feed_b) {
      service.submit_arrival(bid);
    }
    service.flush_epoch();
    original_a = service.wait_epoch(0);
    original_b = service.wait_epoch(1);
    ASSERT_TRUE(original_a.ok());
    ASSERT_TRUE(original_a.journal_error.empty());
  }

  CampaignService restarted{config};
  EXPECT_EQ(restarted.journaled_epochs(), 2u);
  for (const auto& bid : feed_a) {
    restarted.submit_arrival(bid);
  }
  restarted.flush_epoch();
  for (const auto& bid : feed_b) {
    restarted.submit_arrival(bid);
  }
  restarted.flush_epoch();
  const auto replayed_a = restarted.wait_epoch(0);
  const auto replayed_b = restarted.wait_epoch(1);
  EXPECT_TRUE(replayed_a.replayed_from_journal);
  EXPECT_TRUE(replayed_b.replayed_from_journal);
  EXPECT_EQ(replayed_a.outcome.winners, original_a.outcome.winners);
  EXPECT_EQ(replayed_a.outcome.worst_case_payout, original_a.outcome.worst_case_payout);
  ASSERT_EQ(replayed_a.outcome.decisions.size(), original_a.outcome.decisions.size());
  for (std::size_t k = 0; k < original_a.outcome.decisions.size(); ++k) {
    EXPECT_EQ(replayed_a.outcome.decisions[k].threshold,
              original_a.outcome.decisions[k].threshold)
        << k;
    EXPECT_EQ(replayed_a.outcome.decisions[k].accepted, original_a.outcome.decisions[k].accepted)
        << k;
  }
  EXPECT_EQ(replayed_b.outcome.winners, original_b.outcome.winners);
  EXPECT_EQ(restarted.stats().epochs_replayed, 2u);
}

TEST_F(EpochJournalFixture, ReplayWithDivergingArrivalsFailsTheEpoch) {
  auto config = online_config();
  config.journal_path = journal_path_;
  {
    CampaignService service{config};
    for (const auto& bid : arrival_feed(10, 41)) {
      service.submit_arrival(bid);
    }
    service.flush_epoch();
    service.drain();
  }
  {
    CampaignService restarted{config};
    ASSERT_EQ(restarted.journaled_epochs(), 1u);
    for (const auto& bid : arrival_feed(10, 42)) {  // different feed, same count
      restarted.submit_arrival(bid);
    }
    restarted.flush_epoch();
    const auto outcome = restarted.wait_epoch(0);
    EXPECT_EQ(outcome.status, auction::AuctionStatus::kFailed);
    EXPECT_NE(outcome.error.find("mismatch"), std::string::npos) << outcome.error;
  }
  // The failed replay must not have appended a duplicate epoch-0 block: the
  // journal stays loadable (contiguous from 0) after the mismatch.
  CampaignService again{config};
  EXPECT_EQ(again.journaled_epochs(), 1u);
}

TEST_F(EpochJournalFixture, OnlineFingerprintGatesTheJournal) {
  auto config = online_config();
  config.journal_path = journal_path_;
  {
    CampaignService service{config};
    service.submit_arrival({1.0, 0.5});
    service.flush_epoch();
    service.drain();
  }
  // A different online budget is a different fingerprint: the journal is
  // refused rather than replayed into wrong outcomes.
  auto other = config;
  other.online.mechanism.budget = 99.0;
  EXPECT_THROW(CampaignService{other}, common::PreconditionError);
  // A round-only service (online disabled) has the pre-online fingerprint —
  // also a mismatch against this journal.
  auto offline = config;
  offline.online.enabled = false;
  EXPECT_THROW(CampaignService{offline}, common::PreconditionError);
}

}  // namespace
}  // namespace mcs::service
