// Crash consistency under real process death. A forked child runs a
// journaled CampaignService over seeded rounds and is SIGKILLed after a
// seeded delay — wherever that lands: before the journal exists, inside the
// header or `config` line, mid-append, or between rounds. The parent then
// resumes a service on the same journal and checks every outcome, replayed
// or recomputed, against an uninterrupted run, bit for bit.
//
// Every child is forked before the parent starts any thread of its own (no
// service, engine, or shared pool runs in the parent until all children are
// reaped), so each child starts from a single-threaded image.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace mcs::service {
namespace {

constexpr std::uint64_t kSeed = 20261017;
constexpr std::size_t kKillPoints = 6;
/// Rounds a child submits before it idles waiting for its kill; caps the
/// parent's replay work when a child outruns its delay.
constexpr std::size_t kChildRounds = 400;
constexpr std::int64_t kMaxDelayMicros = 40'000;
/// Rounds the parent runs past the journaled prefix after resuming.
constexpr std::size_t kFreshRounds = 3;

GeoRound seeded_round(std::size_t k) {
  GeoRound round;
  round.instance = test::random_multi_task(120, 12, 0.5, kSeed + k);
  for (std::size_t j = 0; j < 12; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  return round;
}

ServiceConfig base_config() {
  ServiceConfig config;
  config.shards = ShardMap(2);
  config.workers = 2;
  return config;
}

/// The child's whole life: journal rounds until killed. Never returns.
[[noreturn]] void run_child(const std::filesystem::path& journal) {
  try {
    auto config = base_config();
    config.journal_path = journal;
    CampaignService service{config};
    for (std::size_t k = 0; k < kChildRounds; ++k) {
      service.wait_outcome(service.submit_round(seeded_round(k)));
    }
  } catch (...) {
    ::_exit(2);  // the parent reports any exit as a failed kill point
  }
  for (;;) {
    ::pause();
  }
}

TEST(ServiceCrash, SigkilledJournalResumesBitIdentically) {
  common::Rng rng(kSeed);
  std::vector<std::int64_t> delays;
  std::vector<std::filesystem::path> journals;
  for (std::size_t point = 0; point < kKillPoints; ++point) {
    // Point 0 kills at once, usually before the journal holds a block.
    delays.push_back(point == 0 ? 0 : rng.uniform_int(0, kMaxDelayMicros));
    journals.push_back(std::filesystem::temp_directory_path() /
                       ("mcs_service_crash_" + std::to_string(::getpid()) + "_" +
                        std::to_string(point) + ".journal"));
  }

  // Phase 1, single-threaded: fork, wait the seeded delay, SIGKILL, reap.
  for (std::size_t point = 0; point < kKillPoints; ++point) {
    std::filesystem::remove(journals[point]);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
      run_child(journals[point]);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delays[point]));
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "kill point " << point << ": child exited on its own (status " << status << ")";
  }

  // Phase 2: what each killed child left behind, and the uninterrupted run
  // long enough to cover every resume.
  std::vector<std::size_t> journaled;
  for (std::size_t point = 0; point < kKillPoints; ++point) {
    journaled.push_back(load_service_journal(journals[point]).records.size());
  }
  const std::size_t horizon = *std::max_element(journaled.begin(), journaled.end()) + kFreshRounds;
  std::vector<RoundOutcome> expected;
  {
    CampaignService uninterrupted{base_config()};
    for (std::size_t k = 0; k < horizon; ++k) {
      expected.push_back(uninterrupted.wait_outcome(uninterrupted.submit_round(seeded_round(k))));
    }
  }

  // Phase 3: resume each journal, replay its prefix, compute past it.
  for (std::size_t point = 0; point < kKillPoints; ++point) {
    const std::string label = "seed " + std::to_string(kSeed) + ", kill point " +
                              std::to_string(point) + " after " +
                              std::to_string(delays[point]) + " us, " +
                              std::to_string(journaled[point]) + " rounds journaled";
    auto config = base_config();
    config.journal_path = journals[point];
    const std::size_t rounds = journaled[point] + kFreshRounds;
    {
      CampaignService resumed{config};
      ASSERT_EQ(resumed.journaled_rounds(), journaled[point]) << label;
      for (std::size_t k = 0; k < rounds; ++k) {
        const auto actual = resumed.wait_outcome(resumed.submit_round(seeded_round(k)));
        EXPECT_EQ(actual.replayed_from_journal, k < journaled[point]) << label << ", round " << k;
        EXPECT_EQ(actual.status, expected[k].status) << label << ", round " << k;
        EXPECT_EQ(actual.error, expected[k].error) << label << ", round " << k;
        EXPECT_EQ(actual.shards_run, expected[k].shards_run) << label << ", round " << k;
        EXPECT_EQ(actual.straddlers, expected[k].straddlers) << label << ", round " << k;
        test::expect_identical_outcome(actual.outcome, expected[k].outcome);
      }
    }
    // The resumed journal is whole again: a second restart replays it all.
    CampaignService again{config};
    EXPECT_EQ(again.journaled_rounds(), rounds) << label;
    std::filesystem::remove(journals[point]);
  }
}

}  // namespace
}  // namespace mcs::service
