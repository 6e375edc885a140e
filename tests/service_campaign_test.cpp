// The CampaignService handle API: submit/poll/wait semantics, bounded-queue
// backpressure, in-order telemetry streaming, the single-shard pass-through's
// bit-identity to the bare engine, the round-outcome journal's replay
// (bit-identical, config-checked, torn-tail tolerant), and the Platform
// compatibility wrapper running sharded campaigns.
#include "service/service.hpp"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "platform/platform.hpp"
#include "test_util.hpp"

namespace mcs::service {
namespace {

using auction::MultiTaskInstance;
using auction::UserId;

GeoRound flat_round(std::size_t n, std::size_t t, std::uint64_t seed) {
  GeoRound round;
  round.instance = test::random_multi_task(n, t, 0.5, seed);
  // Single-shard services ignore task cells; leaving them empty exercises
  // that documented allowance.
  return round;
}

GeoRound celled_round(std::size_t n, std::size_t t, std::uint64_t seed) {
  auto round = flat_round(n, t, seed);
  for (std::size_t j = 0; j < t; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  return round;
}

class JournalPathFixture : public ::testing::Test {
 protected:
  JournalPathFixture() {
    journal_path_ =
        std::filesystem::temp_directory_path() /
        ("mcs_service_journal_" +
         std::to_string(::getpid()) + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal");
    std::filesystem::remove(journal_path_);
  }
  ~JournalPathFixture() override { std::filesystem::remove(journal_path_); }

  std::filesystem::path journal_path_;
};

// ---------------------------------------------------------------------------
// Submit / poll / wait semantics
// ---------------------------------------------------------------------------

TEST(CampaignServiceApi, SubmitAssignsSequentialIdsAndWaitDeliversOnce) {
  CampaignService service{ServiceConfig{}};
  EXPECT_EQ(service.submit_round(flat_round(10, 3, 1)), 0u);
  EXPECT_EQ(service.submit_round(flat_round(12, 4, 2)), 1u);
  const auto second = service.wait_outcome(1);  // out of order is fine
  const auto first = service.wait_outcome(0);
  EXPECT_EQ(first.round, 0u);
  EXPECT_EQ(second.round, 1u);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.shards_run, 1u);
  EXPECT_FALSE(first.replayed_from_journal);
  // Each outcome is delivered exactly once, and unknown ids are rejected.
  EXPECT_THROW(service.wait_outcome(0), common::PreconditionError);
  EXPECT_THROW(service.poll_outcome(1), common::PreconditionError);
  EXPECT_THROW(service.poll_outcome(99), common::PreconditionError);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.replayed, 0u);
}

TEST(CampaignServiceApi, WaitOutcomeFailsFastWithDiagnosableErrors) {
  // Regression: wait_outcome on an id that can never settle must throw
  // immediately — never block forever — and the error must name the id and
  // which rule it broke, so a misbehaving client can be debugged from the
  // message alone.
  CampaignService service{ServiceConfig{}};
  const auto id = service.submit_round(flat_round(8, 2, 11));
  try {
    service.wait_outcome(1'000'000);  // far beyond anything submitted
    FAIL() << "wait_outcome on a never-submitted id should throw";
  } catch (const common::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1000000"), std::string::npos) << what;
    EXPECT_NE(what.find("never submitted"), std::string::npos) << what;
  }
  // Deliver via poll, then both verbs refuse the delivered id.
  RoundOutcome outcome = service.wait_outcome(id);
  EXPECT_TRUE(outcome.ok());
  try {
    service.wait_outcome(id);
    FAIL() << "re-waiting a delivered id should throw";
  } catch (const common::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(id)), std::string::npos) << what;
    EXPECT_NE(what.find("already delivered"), std::string::npos) << what;
  }
  EXPECT_THROW(service.poll_outcome(id), common::PreconditionError);
}

TEST(CampaignServiceApi, ConcurrentWaitersGetExactlyOneDelivery) {
  // Two threads waiting on the same round: exactly one receives the outcome,
  // the other gets the fail-fast already-delivered error (never a hang).
  CampaignService service{ServiceConfig{}};
  const auto id = service.submit_round(flat_round(12, 3, 13));
  std::atomic<int> delivered{0};
  std::atomic<int> refused{0};
  auto waiter = [&] {
    try {
      service.wait_outcome(id);
      ++delivered;
    } catch (const common::PreconditionError&) {
      ++refused;
    }
  };
  std::thread a(waiter);
  std::thread b(waiter);
  a.join();
  b.join();
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(refused.load(), 1);
}

TEST(CampaignServiceApi, MalformedBidsFailAShardedRoundWhole) {
  // Out-of-range task ids and misaligned PoS arrays used to be read by the
  // partition before anything validated them (undefined behaviour). The
  // partition now validates every bid up front: the round fails whole, with
  // MultiTaskUserBid::validate's message and no "shard s:" prefix, and the
  // service keeps serving.
  ServiceConfig config;
  config.shards = ShardMap(4);
  CampaignService service{config};
  const std::size_t tasks = 6;
  const std::vector<std::pair<std::string, std::function<void(auction::MultiTaskUserBid&)>>>
      corruptions = {
          {"task index out of range",
           [&](auto& bid) { bid.tasks.back() = static_cast<auction::TaskIndex>(tasks); }},
          {"task index out of range", [](auto& bid) { bid.tasks.front() = -1; }},
          {"task set and PoS arrays must be aligned", [](auto& bid) { bid.pos.pop_back(); }},
          {"costs must be strictly positive", [](auto& bid) { bid.cost = -1.0; }},
      };
  for (std::size_t k = 0; k < corruptions.size(); ++k) {
    auto bad = celled_round(40, tasks, 60 + k);
    corruptions[k].second(bad.instance.users[7]);
    const auto bad_id = service.submit_round(std::move(bad));
    const auto good_id = service.submit_round(celled_round(40, tasks, 70 + k));
    const auto bad_outcome = service.wait_outcome(bad_id);
    EXPECT_EQ(bad_outcome.status, auction::AuctionStatus::kFailed) << corruptions[k].first;
    EXPECT_NE(bad_outcome.error.find(corruptions[k].first), std::string::npos)
        << bad_outcome.error;
    EXPECT_EQ(bad_outcome.error.find("shard "), std::string::npos) << bad_outcome.error;
    EXPECT_TRUE(bad_outcome.outcome.allocation.winners.empty());
    EXPECT_EQ(service.wait_outcome(good_id).status, auction::AuctionStatus::kOk);
  }
  EXPECT_EQ(service.stats().failed, corruptions.size());
}

TEST(CampaignServiceApi, PollReturnsNulloptUntilCompleteAndDrainWaits) {
  CampaignService service{ServiceConfig{}};
  std::vector<RoundId> ids;
  for (std::uint64_t k = 0; k < 6; ++k) {
    ids.push_back(service.submit_round(flat_round(14, 4, 100 + k)));
  }
  service.drain();
  for (const RoundId id : ids) {
    const auto outcome = service.poll_outcome(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->round, id);
  }
  EXPECT_EQ(service.stats().completed, 6u);
}

TEST(CampaignServiceApi, InvalidRoundFailsItsSlotOnly) {
  CampaignService service{ServiceConfig{}};
  auto bad = flat_round(6, 2, 4);
  bad.instance.users[0].cost = -1.0;  // validate() rejects non-positive costs
  const auto bad_id = service.submit_round(std::move(bad));
  const auto good_id = service.submit_round(flat_round(10, 3, 5));
  const auto bad_outcome = service.wait_outcome(bad_id);
  const auto good_outcome = service.wait_outcome(good_id);
  EXPECT_EQ(bad_outcome.status, auction::AuctionStatus::kFailed);
  EXPECT_FALSE(bad_outcome.error.empty());
  EXPECT_TRUE(good_outcome.ok());
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(CampaignServiceApi, PaperIterationMinRefusedWhenSharded) {
  ServiceConfig config;
  config.shards = ShardMap(2);
  config.mechanism.multi_task.critical_bid_rule = auction::CriticalBidRule::kPaperIterationMin;
  EXPECT_THROW(CampaignService{config}, common::PreconditionError);
  config.shards = ShardMap(1);  // not shard-decomposable, but unsharded is fine
  EXPECT_NO_THROW(CampaignService{config});
}

// ---------------------------------------------------------------------------
// Backpressure: the bounded queue blocks submit and refuses try_submit
// ---------------------------------------------------------------------------

TEST(CampaignServiceQueue, TrySubmitRefusesWhileTheQueueIsFull) {
  ServiceConfig config;
  config.queue_capacity = 2;
  CampaignService service{config};

  // Gate the dispatcher inside round 0's telemetry delivery so submissions
  // pile up behind a deterministically stalled pipeline.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool sink_entered = false;
  bool release = false;
  service.stream_telemetry([&](const RoundTelemetry&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    sink_entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });

  service.submit_round(flat_round(8, 2, 1));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return sink_entered; });
  }
  // The dispatcher is stalled in the sink; fill the queue to its bound.
  EXPECT_TRUE(service.try_submit_round(flat_round(8, 2, 2)).has_value());
  EXPECT_TRUE(service.try_submit_round(flat_round(8, 2, 3)).has_value());
  EXPECT_FALSE(service.try_submit_round(flat_round(8, 2, 4)).has_value());
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  service.drain();
  EXPECT_TRUE(service.try_submit_round(flat_round(8, 2, 5)).has_value());
  service.drain();
  EXPECT_EQ(service.stats().completed, 4u);
}

// ---------------------------------------------------------------------------
// Telemetry streaming
// ---------------------------------------------------------------------------

TEST(CampaignServiceTelemetry, SinksSeeEveryRoundInOrderUntilUnsubscribed) {
  CampaignService service{ServiceConfig{}};
  std::mutex mutex;
  std::vector<RoundTelemetry> seen;
  const auto subscription = service.stream_telemetry([&](const RoundTelemetry& telemetry) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(telemetry);
  });
  for (std::uint64_t k = 0; k < 5; ++k) {
    service.submit_round(flat_round(12, 3, 200 + k));
  }
  service.drain();
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), 5u);
    for (std::size_t k = 0; k < seen.size(); ++k) {
      EXPECT_EQ(seen[k].round, k);
      EXPECT_EQ(seen[k].shards_run, 1u);
      EXPECT_GE(seen[k].latency_seconds, 0.0);
      // to_json stays parseable-looking and carries the round id.
      EXPECT_NE(to_json(seen[k]).find("\"round\":" + std::to_string(k)), std::string::npos);
    }
  }
  service.unsubscribe(subscription);
  service.submit_round(flat_round(12, 3, 300));
  service.drain();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(service.unsubscribe(subscription), common::PreconditionError);
}

TEST(CampaignServiceTelemetry, ThrowingSinkNeverEscapesTheDispatcher) {
  // Regression: a sink exception used to propagate out of the dispatcher
  // thread and terminate the process. It must instead be recorded on the
  // round, leaving the outcome, the other sinks, and later rounds intact.
  ServiceConfig config;
  config.sink_quarantine_failures = 0;  // keep the broken sink in play
  CampaignService service{config};
  service.stream_telemetry(
      [](const RoundTelemetry&) -> void { throw std::runtime_error("sink exploded"); });
  std::size_t healthy_calls = 0;
  service.stream_telemetry([&](const RoundTelemetry&) { ++healthy_calls; });

  const auto first = service.wait_outcome(service.submit_round(flat_round(12, 3, 950)));
  const auto second = service.wait_outcome(service.submit_round(flat_round(12, 3, 951)));
  for (const auto* outcome : {&first, &second}) {
    EXPECT_TRUE(outcome->ok()) << outcome->error;
    ASSERT_EQ(outcome->sink_errors.size(), 1u);
    EXPECT_NE(outcome->sink_errors.front().find("sink exploded"), std::string::npos);
  }
  EXPECT_EQ(healthy_calls, 2u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.sink_failures, 2u);
  EXPECT_EQ(stats.sinks_quarantined, 0u);  // threshold 0 = never quarantine
}

// ---------------------------------------------------------------------------
// Bit-identity of the service pipeline
// ---------------------------------------------------------------------------

TEST(CampaignServiceEquivalence, SingleShardIsAPassThroughOverTheEngine) {
  const auction::Engine engine;
  CampaignService service{ServiceConfig{}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto round = flat_round(16, 5, 400 + seed);
    const auto expected = engine.run_one_isolated(round.instance, ServiceConfig{}.mechanism);
    const auto actual = service.wait_outcome(service.submit_round(round));
    ASSERT_EQ(actual.status, expected.status);
    EXPECT_EQ(actual.error, expected.error);
    test::expect_identical_outcome(actual.outcome, expected.outcome);
  }
}

TEST(CampaignServiceEquivalence, ShardedServiceMatchesFlatOnStraddlerFreeRounds) {
  // Users bid on one task each (cells 0..t-1): no straddlers by construction,
  // so the sharded service must be bit-identical to the flat engine.
  const auction::Engine engine;
  ServiceConfig config;
  config.shards = ShardMap(4);
  CampaignService service{config};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto round = celled_round(20, 8, 500 + seed);
    for (auto& user : round.instance.users) {
      user.tasks.resize(1);
      user.pos.resize(1);
    }
    const auto expected = engine.run_one_isolated(round.instance, config.mechanism);
    const auto actual = service.wait_outcome(service.submit_round(round));
    ASSERT_EQ(actual.status, expected.status) << actual.error;
    EXPECT_EQ(actual.straddlers, 0u);
    test::expect_identical_outcome(actual.outcome, expected.outcome);
  }
}

// Retries and an injector that never fires are availability knobs only: a
// service with either one computes, and journals, every round exactly like
// the default service, at any shard count, with or without straddlers, and
// for a zero-task round (no shard owns a task, so it runs whole).
TEST_F(JournalPathFixture, RetryAndIdleInjectorMatchTheDefaultService) {
  // Straddler-free and feasible: user i bids on task i % 32 alone, five
  // users per task at PoS in [0.375, 0.6] against a 0.5 requirement.
  auto straddler_free = celled_round(160, 32, 801);
  for (std::size_t i = 0; i < straddler_free.instance.users.size(); ++i) {
    auto& user = straddler_free.instance.users[i];
    user.tasks = {static_cast<auction::TaskIndex>(i % 32)};
    user.pos = {0.35 + 0.5 * user.pos[0]};
  }
  const std::vector<GeoRound> rounds = {straddler_free, celled_round(96, 32, 802), GeoRound{}};

  auto read_journal = [this] {
    std::ifstream in(journal_path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  for (const std::size_t shard_count : {1u, 4u, 16u}) {
    std::vector<ServiceConfig> configs(3);
    configs[1].retry.max_attempts = 3;
    configs[2].fault_injector = std::make_shared<common::FaultInjector>(13);  // all-zero specs
    std::vector<std::vector<RoundOutcome>> outcomes;
    std::vector<std::string> journals;
    for (auto& config : configs) {
      config.shards = ShardMap(shard_count);
      config.journal_path = journal_path_;
      std::filesystem::remove(journal_path_);
      {
        CampaignService service{config};
        outcomes.emplace_back();
        for (const auto& round : rounds) {
          outcomes.back().push_back(service.wait_outcome(service.submit_round(round)));
        }
      }
      journals.push_back(read_journal());
    }
    const auto& expected = outcomes[0];
    EXPECT_EQ(expected[0].straddlers, 0u);
    EXPECT_EQ(expected[1].straddlers > 0, shard_count > 1);
    EXPECT_FALSE(expected[0].outcome.allocation.winners.empty());
    EXPECT_EQ(expected[2].shards_run, shard_count > 1 ? 0u : 1u);
    for (std::size_t c = 1; c < configs.size(); ++c) {
      EXPECT_EQ(journals[c], journals[0]) << "config " << c << ", shards " << shard_count;
      for (std::size_t k = 0; k < rounds.size(); ++k) {
        const auto& actual = outcomes[c][k];
        ASSERT_EQ(actual.status, expected[k].status) << actual.error;
        EXPECT_EQ(actual.error, expected[k].error);
        EXPECT_EQ(actual.shards_run, expected[k].shards_run);
        EXPECT_EQ(actual.straddlers, expected[k].straddlers);
        EXPECT_EQ(actual.shard_retries, 0u);
        test::expect_identical_outcome(actual.outcome, expected[k].outcome);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Journal: durability and replay
// ---------------------------------------------------------------------------

TEST_F(JournalPathFixture, RestartReplaysJournaledRoundsBitIdentically) {
  ServiceConfig config;
  config.shards = ShardMap(2);
  config.journal_path = journal_path_;

  std::vector<RoundOutcome> computed;
  {
    CampaignService service{config};
    for (std::uint64_t k = 0; k < 4; ++k) {
      service.submit_round(celled_round(16, 6, 600 + k));
    }
    for (std::uint64_t k = 0; k < 4; ++k) {
      computed.push_back(service.wait_outcome(k));
      EXPECT_FALSE(computed.back().replayed_from_journal);
    }
  }

  CampaignService resumed{config};
  EXPECT_EQ(resumed.journaled_rounds(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    resumed.submit_round(celled_round(16, 6, 600 + k));
  }
  const auto fresh = resumed.submit_round(celled_round(16, 6, 700));
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto replayed = resumed.wait_outcome(k);
    EXPECT_TRUE(replayed.replayed_from_journal);
    EXPECT_EQ(replayed.status, computed[k].status);
    EXPECT_EQ(replayed.error, computed[k].error);
    EXPECT_EQ(replayed.shards_run, computed[k].shards_run);
    EXPECT_EQ(replayed.straddlers, computed[k].straddlers);
    test::expect_identical_outcome(replayed.outcome, computed[k].outcome);
  }
  EXPECT_FALSE(resumed.wait_outcome(fresh).replayed_from_journal);
  EXPECT_EQ(resumed.stats().replayed, 4u);
}

TEST_F(JournalPathFixture, TornTailIsDroppedAndRecomputed) {
  ServiceConfig config;
  config.journal_path = journal_path_;
  {
    CampaignService service{config};
    service.submit_round(flat_round(14, 4, 800));
    service.submit_round(flat_round(14, 4, 801));
    service.drain();
  }
  // Simulate a crash mid-append: a begin block with no terminated end line.
  {
    std::ofstream out(journal_path_, std::ios::binary | std::ios::app);
    out << "begin round 2\nstatus ok\nusers 14\ntasks 4\nshards_run 1\nstraddlers 0";
  }
  CampaignService resumed{config};
  EXPECT_EQ(resumed.journaled_rounds(), 2u);
  resumed.submit_round(flat_round(14, 4, 800));
  resumed.submit_round(flat_round(14, 4, 801));
  resumed.submit_round(flat_round(14, 4, 802));
  EXPECT_TRUE(resumed.wait_outcome(0).replayed_from_journal);
  EXPECT_TRUE(resumed.wait_outcome(1).replayed_from_journal);
  EXPECT_FALSE(resumed.wait_outcome(2).replayed_from_journal);
}

TEST_F(JournalPathFixture, TornConfigLineSurvivesASecondRestart) {
  // Regression: a crash inside the `config` line leaves a header-only valid
  // prefix. The resumed service must write the config line again before its
  // first block; otherwise the next restart finds rounds without a
  // fingerprint and refuses the journal.
  {
    std::ofstream out(journal_path_, std::ios::binary);
    out << "mcs-service-journal-v1\nconfig shar";
  }
  ServiceConfig config;
  config.journal_path = journal_path_;
  std::vector<RoundOutcome> computed;
  {
    CampaignService service{config};
    EXPECT_EQ(service.journaled_rounds(), 0u);
    computed.push_back(service.wait_outcome(service.submit_round(flat_round(14, 4, 820))));
    service.drain();
  }
  CampaignService resumed{config};
  EXPECT_EQ(resumed.journaled_rounds(), 1u);
  const auto replayed = resumed.wait_outcome(resumed.submit_round(flat_round(14, 4, 820)));
  EXPECT_TRUE(replayed.replayed_from_journal);
  test::expect_identical_outcome(replayed.outcome, computed[0].outcome);
}

TEST_F(JournalPathFixture, DifferentConfigurationRefusesTheJournal) {
  ServiceConfig config;
  config.journal_path = journal_path_;
  {
    CampaignService service{config};
    service.submit_round(flat_round(14, 4, 900));
    service.drain();
  }
  ServiceConfig different = config;
  different.mechanism.alpha = 20.0;
  EXPECT_THROW(CampaignService{different}, common::PreconditionError);
  // Thread/queue knobs are outside the fingerprint: changing them resumes.
  ServiceConfig resized = config;
  resized.queue_capacity = 7;
  resized.workers = 2;
  EXPECT_NO_THROW(CampaignService{resized});
}

TEST_F(JournalPathFixture, DivergingResubmissionFailsTheReplayedRound) {
  ServiceConfig config;
  config.journal_path = journal_path_;
  {
    CampaignService service{config};
    service.submit_round(flat_round(14, 4, 910));
    service.drain();
  }
  CampaignService resumed{config};
  const auto id = resumed.submit_round(flat_round(9, 3, 911));  // different shape
  const auto outcome = resumed.wait_outcome(id);
  EXPECT_EQ(outcome.status, auction::AuctionStatus::kFailed);
  EXPECT_NE(outcome.error.find("journal replay mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Platform wrapper: sharded campaigns through the service
// ---------------------------------------------------------------------------

TEST(PlatformSharded, ShardedCampaignRunsAndAccountsConsistently) {
  trace::CityConfig city_config;
  city_config.num_taxis = 40;
  city_config.num_days = 6;
  city_config.trips_per_day = 20;
  const trace::CityModel city(city_config);
  const auto dataset = trace::generate_trace(city);
  const mobility::FleetModel fleet(dataset, city.grid(), mobility::MarkovLearner(1.0));

  platform::CampaignConfig config;
  config.rounds = 5;
  config.num_tasks = 6;
  config.num_bidders = 30;
  config.pos_requirement = 0.6;
  config.seed = 77;
  config.shards = 3;
  platform::Platform platform(city, fleet, config);
  const auto report = platform.run_campaign();
  EXPECT_EQ(report.rounds.size(), config.rounds);
  double payout = 0.0;
  std::size_t held = 0;
  for (const auto& round : report.rounds) {
    payout += round.payout;
    held += round.held ? 1 : 0;
  }
  EXPECT_EQ(report.total_payout, payout);
  EXPECT_EQ(report.rounds_held, held);
}

}  // namespace
}  // namespace mcs::service
