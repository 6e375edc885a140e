// Checkpointed campaigns: every round is journaled with enough state that a
// campaign killed after round k and restarted replays the journaled rounds
// verbatim and resumes to per-round outcomes bit-identical to an
// uninterrupted run; a torn trailing block (the process died mid-append) is
// dropped; corruption before the last complete block is rejected.
#include "platform/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace mcs::platform {
namespace {

class JournalFixture : public ::testing::Test {
 protected:
  JournalFixture() : city_(make_config()), dataset_(trace::generate_trace(city_)) {
    fleet_ = mobility::FleetModel(dataset_, city_.grid(), mobility::MarkovLearner(1.0));
    journal_path_ = std::filesystem::temp_directory_path() /
                    ("mcs_journal_test_" + std::to_string(::getpid()) +
                     "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                     ".journal");
    std::filesystem::remove(journal_path_);
  }

  ~JournalFixture() override { std::filesystem::remove(journal_path_); }

  static trace::CityConfig make_config() {
    trace::CityConfig config;
    config.num_taxis = 40;
    config.num_days = 6;
    config.trips_per_day = 20;
    return config;
  }

  CampaignConfig campaign_config(bool journaled) const {
    CampaignConfig config;
    config.rounds = 6;
    config.num_tasks = 6;
    config.num_bidders = 30;
    config.pos_requirement = 0.6;
    config.seed = 77;
    if (journaled) {
      config.journal_path = journal_path_;
    }
    return config;
  }

  std::string journal_text() const {
    std::ifstream in(journal_path_, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return text;
  }

  trace::CityModel city_;
  trace::TraceDataset dataset_;
  mobility::FleetModel fleet_;
  std::filesystem::path journal_path_;
};

void expect_telemetry_identical(const obs::MechanismTelemetry& actual,
                                const obs::MechanismTelemetry& expected) {
  EXPECT_EQ(actual.enabled, expected.enabled);
  EXPECT_EQ(actual.winner_determination_seconds, expected.winner_determination_seconds);
  EXPECT_EQ(actual.rewards_seconds, expected.rewards_seconds);
  EXPECT_EQ(actual.degraded_events, expected.degraded_events);
  for (const auto& [a, b] : {std::pair{&actual.winner_determination, &expected.winner_determination},
                             std::pair{&actual.rewards, &expected.rewards}}) {
    EXPECT_EQ(a->probes, b->probes);
    EXPECT_EQ(a->deadline_polls, b->deadline_polls);
    EXPECT_EQ(a->rounds, b->rounds);
    EXPECT_EQ(a->heap_reevaluations, b->heap_reevaluations);
    EXPECT_EQ(a->bisection_steps, b->bisection_steps);
  }
}

void expect_round_identical(const RoundReport& actual, const RoundReport& expected) {
  EXPECT_EQ(actual.round, expected.round);
  EXPECT_EQ(actual.held, expected.held);
  EXPECT_EQ(actual.degraded, expected.degraded);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.winners, expected.winners);
  EXPECT_EQ(actual.social_cost, expected.social_cost);
  EXPECT_EQ(actual.payout, expected.payout);
  EXPECT_EQ(actual.tasks_posted, expected.tasks_posted);
  EXPECT_EQ(actual.tasks_completed, expected.tasks_completed);
  EXPECT_EQ(actual.mean_required_pos, expected.mean_required_pos);
  EXPECT_EQ(actual.mean_achieved_pos, expected.mean_achieved_pos);
  EXPECT_EQ(actual.winning_taxis, expected.winning_taxis);
  expect_telemetry_identical(actual.telemetry, expected.telemetry);
}

void expect_campaign_identical(const CampaignReport& actual, const CampaignReport& expected) {
  ASSERT_EQ(actual.rounds.size(), expected.rounds.size());
  for (std::size_t k = 0; k < actual.rounds.size(); ++k) {
    expect_round_identical(actual.rounds[k], expected.rounds[k]);
  }
  EXPECT_EQ(actual.total_payout, expected.total_payout);
  EXPECT_EQ(actual.total_social_cost, expected.total_social_cost);
  EXPECT_EQ(actual.total_tasks_posted, expected.total_tasks_posted);
  EXPECT_EQ(actual.total_tasks_completed, expected.total_tasks_completed);
  EXPECT_EQ(actual.rounds_held, expected.rounds_held);
  EXPECT_EQ(actual.wins_by_taxi, expected.wins_by_taxi);
}

TEST_F(JournalFixture, JournaledCampaignMatchesUnjournaled) {
  Platform plain(city_, fleet_, campaign_config(false));
  const auto expected = plain.run_campaign();
  Platform journaled(city_, fleet_, campaign_config(true));
  const auto actual = journaled.run_campaign();
  expect_campaign_identical(actual, expected);
  const auto entries = replay_journal(journal_path_);
  ASSERT_EQ(entries.size(), expected.rounds.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    expect_round_identical(entries[k].report, expected.rounds[k]);
  }
}

TEST_F(JournalFixture, KillAfterRoundKThenResumeReproducesTheCampaign) {
  Platform uninterrupted(city_, fleet_, campaign_config(false));
  const auto expected = uninterrupted.run_campaign();

  // "Kill" after round k: run a k-round campaign against the journal, then
  // restart with the full round count. The fresh Platform reads the journal,
  // replays rounds 0..k-1, restores positions/RNG/reputation, and finishes.
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    std::filesystem::remove(journal_path_);
    auto truncated = campaign_config(true);
    truncated.rounds = k;
    Platform first(city_, fleet_, truncated);
    first.run_campaign();

    Platform resumed(city_, fleet_, campaign_config(true));
    const auto report = resumed.run_campaign();
    expect_campaign_identical(report, expected);

    // The resumed platform's live state matches the uninterrupted one too.
    for (trace::TaxiId taxi : fleet_.taxis()) {
      EXPECT_EQ(resumed.position_of(taxi), uninterrupted.position_of(taxi));
      const auto a = resumed.reputation().record_of(taxi);
      const auto b = uninterrupted.reputation().record_of(taxi);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.expected_successes, b.expected_successes);
      EXPECT_EQ(a.variance, b.variance);
      EXPECT_EQ(a.realized_successes, b.realized_successes);
    }
  }
}

TEST_F(JournalFixture, TelemetryEnabledRoundsSurviveTheJournalAndResume) {
  // With telemetry on, every round's record (phase timings, probe and
  // degradation counts) is journaled; a resumed campaign replays those
  // rounds verbatim, wall-clock values included — the journal is the record
  // of what actually ran, not a re-measurement.
  const obs::ScopedTelemetry on(true);
  auto truncated = campaign_config(true);
  truncated.rounds = 3;
  Platform first(city_, fleet_, truncated);
  const auto before = first.run_campaign();
  ASSERT_EQ(before.rounds.size(), 3u);
  for (const auto& round : before.rounds) {
    if (round.held) {  // a held round ran its auction under the enabled flag
      EXPECT_TRUE(round.telemetry.enabled);
      EXPECT_GT(round.telemetry.winner_determination.rounds, 0u);
    }
  }
  EXPECT_TRUE(before.telemetry_totals.enabled);

  Platform resumed(city_, fleet_, campaign_config(true));
  const auto after = resumed.run_campaign();
  ASSERT_EQ(after.rounds.size(), campaign_config(true).rounds);
  for (std::size_t k = 0; k < before.rounds.size(); ++k) {
    expect_telemetry_identical(after.rounds[k].telemetry, before.rounds[k].telemetry);
  }
  const auto entries = replay_journal(journal_path_);
  ASSERT_EQ(entries.size(), after.rounds.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    expect_telemetry_identical(entries[k].report.telemetry, after.rounds[k].telemetry);
  }
}

TEST_F(JournalFixture, ResumingACompletedCampaignRerunsNothing) {
  Platform first(city_, fleet_, campaign_config(true));
  const auto expected = first.run_campaign();
  const auto size_after = std::filesystem::file_size(journal_path_);
  Platform again(city_, fleet_, campaign_config(true));
  const auto report = again.run_campaign();
  expect_campaign_identical(report, expected);
  EXPECT_EQ(std::filesystem::file_size(journal_path_), size_after);  // nothing appended
}

TEST_F(JournalFixture, TornTrailingBlockIsDroppedAndRewritten) {
  auto truncated = campaign_config(true);
  truncated.rounds = 3;
  Platform first(city_, fleet_, truncated);
  first.run_campaign();

  // Simulate a crash mid-append: chop the file in the middle of the last
  // block. Replay must drop the torn round 2 and keep rounds 0-1.
  auto text = journal_text();
  const auto last_end = text.rfind("end round 2");
  ASSERT_NE(last_end, std::string::npos);
  const auto keep = last_end > 40 ? last_end - 40 : last_end;
  {
    std::ofstream out(journal_path_, std::ios::binary | std::ios::trunc);
    out << text.substr(0, keep);
  }
  const auto entries = replay_journal(journal_path_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].report.round, 0u);
  EXPECT_EQ(entries[1].report.round, 1u);

  // Resuming re-runs rounds 2.. and converges to the uninterrupted outcome.
  Platform uninterrupted(city_, fleet_, campaign_config(false));
  const auto expected = uninterrupted.run_campaign();
  Platform resumed(city_, fleet_, campaign_config(true));
  expect_campaign_identical(resumed.run_campaign(), expected);

  // The resume must have truncated the torn fragment before appending, so
  // the recovered journal replays cleanly: all rounds present, no torn
  // 'begin' left to fuse with the appended blocks.
  const auto recovered = replay_journal(journal_path_);
  ASSERT_EQ(recovered.size(), expected.rounds.size());
  for (std::size_t k = 0; k < recovered.size(); ++k) {
    expect_round_identical(recovered[k].report, expected.rounds[k]);
  }

  // And a second resume (e.g. re-running the completed campaign) still works.
  Platform again(city_, fleet_, campaign_config(true));
  expect_campaign_identical(again.run_campaign(), expected);
}

TEST_F(JournalFixture, TornConfigLineSurvivesASecondResume) {
  // Regression: a crash inside the `config` line leaves a header-only valid
  // prefix. The resumed campaign must write the config line again before its
  // first block; otherwise the next resume finds rounds without a
  // fingerprint and refuses the journal.
  {
    std::ofstream out(journal_path_, std::ios::binary);
    out << "mcs-journal-v1\nconfig seed=7";
  }
  auto truncated = campaign_config(true);
  truncated.rounds = 2;
  Platform(city_, fleet_, truncated).run_campaign();
  EXPECT_EQ(parse_journal(journal_text()).config, config_fingerprint(truncated));

  Platform uninterrupted(city_, fleet_, campaign_config(false));
  Platform resumed(city_, fleet_, campaign_config(true));
  expect_campaign_identical(resumed.run_campaign(), uninterrupted.run_campaign());
}

TEST_F(JournalFixture, ResumingUnderADifferentConfigurationThrows) {
  auto truncated = campaign_config(true);
  truncated.rounds = 3;
  Platform first(city_, fleet_, truncated);
  first.run_campaign();

  // Any knob that shapes a round's outcome voids the journal...
  auto different_seed = campaign_config(true);
  different_seed.seed = 78;
  EXPECT_THROW(Platform(city_, fleet_, different_seed).run_campaign(),
               common::PreconditionError);
  auto different_alpha = campaign_config(true);
  different_alpha.alpha = 12.0;
  EXPECT_THROW(Platform(city_, fleet_, different_alpha).run_campaign(),
               common::PreconditionError);
  auto different_tasks = campaign_config(true);
  different_tasks.num_tasks = 5;
  EXPECT_THROW(Platform(city_, fleet_, different_tasks).run_campaign(),
               common::PreconditionError);

  // ...but a larger round count is exactly how a killed campaign resumes.
  Platform resumed(city_, fleet_, campaign_config(true));
  Platform uninterrupted(city_, fleet_, campaign_config(false));
  expect_campaign_identical(resumed.run_campaign(), uninterrupted.run_campaign());
}

TEST_F(JournalFixture, CorruptionBeforeTheLastCompleteBlockThrows) {
  auto truncated = campaign_config(true);
  truncated.rounds = 3;
  Platform first(city_, fleet_, truncated);
  first.run_campaign();
  auto text = journal_text();
  const auto pos = text.find("rng ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "rgn ");  // corrupt an early block, not the tail
  {
    std::ofstream out(journal_path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(replay_journal(journal_path_), common::PreconditionError);
}

TEST(Journal, MissingFileIsAnEmptyJournal) {
  EXPECT_TRUE(replay_journal("/nonexistent/dir/never-written.journal").empty());
}

TEST(Journal, RejectsForeignHeader) {
  EXPECT_THROW(journal_from_text("mcs-single-task-v1\n"), common::PreconditionError);
}

TEST(Journal, EmptyOrTornHeaderIsAnEmptyJournal) {
  // A writer that died before (or mid-way through) its first line left a
  // torn tail, not corruption: nothing valid was ever on disk.
  EXPECT_TRUE(journal_from_text("").empty());
  EXPECT_TRUE(journal_from_text("mcs-jour").empty());
  EXPECT_EQ(parse_journal("mcs-jour").valid_bytes, 0u);
  // A terminated wrong header is a foreign file, never a torn write.
  EXPECT_THROW(journal_from_text("mcs-jour\n"), common::PreconditionError);
}

TEST(Journal, EntryTextRoundTripsExactly) {
  JournalEntry entry;
  entry.report.round = 4;
  entry.report.held = true;
  entry.report.degraded = true;
  entry.report.error = "multi-task greedy cover: wall-clock budget exhausted # not a comment";
  entry.report.winners = 2;
  entry.report.social_cost = 0.1 + 0.2;  // not exactly 0.3
  entry.report.payout = 1.0 / 3.0;
  entry.report.tasks_posted = 7;
  entry.report.tasks_completed = 5;
  entry.report.mean_required_pos = 0.6;
  entry.report.mean_achieved_pos = 2.0 / 3.0;
  entry.report.winning_taxis = {3, 15};
  entry.positions = {9, -1, 44};
  entry.rng_state = {1, 0, 18446744073709551615ULL, 42};
  entry.reputation = {{3, {.rounds = 2, .expected_successes = 1.5,
                           .variance = 0.375, .realized_successes = 1}}};
  const auto parsed = journal_from_text(std::string("mcs-journal-v1\n") + to_text(entry));
  ASSERT_EQ(parsed.size(), 1u);
  expect_round_identical(parsed[0].report, entry.report);
  EXPECT_EQ(parsed[0].positions, entry.positions);
  EXPECT_EQ(parsed[0].rng_state, entry.rng_state);
  ASSERT_EQ(parsed[0].reputation.size(), 1u);
  EXPECT_EQ(parsed[0].reputation[0].first, 3);
  EXPECT_EQ(parsed[0].reputation[0].second.expected_successes, 1.5);
  EXPECT_EQ(parsed[0].reputation[0].second.variance, 0.375);
}

TEST(Journal, TelemetryRecordRoundTripsExactly) {
  JournalEntry entry;
  entry.report.round = 2;
  entry.report.held = true;
  entry.report.degraded = true;
  entry.report.error = "fell back to the 2-approximation";
  entry.positions = {4};
  auto& t = entry.report.telemetry;
  t.enabled = true;
  t.winner_determination_seconds = 0.1 + 0.2;  // not exactly 0.3
  t.rewards_seconds = 1.0 / 3.0;
  t.degraded_events = 1;
  t.winner_determination = {.probes = 0, .deadline_polls = 18446744073709551615ULL,
                            .rounds = 7, .heap_reevaluations = 123, .bisection_steps = 0};
  t.rewards = {.probes = 96, .deadline_polls = 96, .rounds = 200,
               .heap_reevaluations = 0, .bisection_steps = 96};
  const auto parsed = journal_from_text(std::string("mcs-journal-v1\n") + to_text(entry));
  ASSERT_EQ(parsed.size(), 1u);
  expect_round_identical(parsed[0].report, entry.report);
  // Error and degraded flags ride the same block as the telemetry line.
  EXPECT_EQ(parsed[0].report.error, entry.report.error);
  EXPECT_TRUE(parsed[0].report.degraded);
}

TEST(Journal, BlocksWithoutTelemetryLoadTheDisabledRecord) {
  // Backward compatibility: journals written before the telemetry record
  // existed (or with telemetry off) have no `telemetry` line; they must load
  // with the default disabled/all-zeros record, not fail.
  JournalEntry legacy;
  legacy.report.round = 0;
  legacy.positions = {1};
  ASSERT_EQ(to_text(legacy).find("telemetry"), std::string::npos);
  const auto parsed = journal_from_text(std::string("mcs-journal-v1\n") + to_text(legacy));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_FALSE(parsed[0].report.telemetry.enabled);
  EXPECT_EQ(parsed[0].report.telemetry.degraded_events, 0u);
}

TEST(Journal, MalformedTelemetryLineIsRejected) {
  JournalEntry entry;
  entry.report.round = 0;
  entry.positions = {1};
  entry.report.telemetry.enabled = true;
  auto text = std::string("mcs-journal-v1\nconfig seed=1\n") + to_text(entry);
  const auto pos = text.find("telemetry ");
  ASSERT_NE(pos, std::string::npos);
  // Drop one trailing counter: 13 tokens instead of 14. The block is the
  // journal's tail, so the torn-tail rule applies — it is excluded from the
  // valid prefix rather than aborting the replay.
  const auto line_end = text.find('\n', pos);
  text.erase(text.rfind(' ', line_end), line_end - text.rfind(' ', line_end));
  EXPECT_TRUE(parse_journal(text).entries.empty());
}

TEST(Journal, ErrorTextNewlinesAreFlattenedSoLaterBlocksSurvive) {
  JournalEntry poisoned;
  poisoned.report.round = 0;
  poisoned.report.error = "first line\nsecond line\r\nthird";
  poisoned.positions = {1};
  poisoned.reputation = {};
  JournalEntry clean;
  clean.report.round = 1;
  clean.positions = {2};
  const auto text = std::string("mcs-journal-v1\n") + to_text(poisoned) + to_text(clean);
  // Both blocks parse: the embedded newlines did not tear block 0 open.
  const auto parsed = journal_from_text(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].report.error, "first line second line  third");
  EXPECT_EQ(parsed[1].report.round, 1u);
}

TEST(Journal, ValidPrefixExcludesTheTornTail) {
  JournalEntry entry;
  entry.report.round = 0;
  entry.positions = {7};
  const std::string valid = std::string("mcs-journal-v1\nconfig seed=1\n") + to_text(entry);
  // A torn append — and even a torn `end round` line missing its newline —
  // must stay outside the valid prefix, or the next append would fuse with it.
  for (const std::string& tail :
       {std::string("begin round 1\nheld 1\n"), std::string("begin round 1\nend round 1")}) {
    const auto replayed = parse_journal(valid + tail);
    ASSERT_EQ(replayed.entries.size(), 1u);
    EXPECT_EQ(replayed.config, "seed=1");
    EXPECT_EQ(replayed.valid_bytes, valid.size());
  }
  EXPECT_EQ(parse_journal(valid).valid_bytes, valid.size());
}

}  // namespace
}  // namespace mcs::platform
