// Crash-recovery fuzz for BOTH journal formats (mcs-journal-v1 and
// mcs-service-journal-v1). The durability contract under corruption:
//   * truncation at ANY byte offset is a torn tail — parsing never throws,
//     yields a prefix of the intact journal's records, and reports a
//     valid_bytes that reparses idempotently;
//   * resuming after truncation at ANY byte offset — cut the file to its
//     valid prefix, reopen the writer, append the next block — yields a
//     journal holding the intact prefix plus the new block, still carrying
//     the original `config` fingerprint;
//   * a flipped byte either lands in the dropped tail (parse succeeds with a
//     valid prefix) or is corruption before the last complete block (parse
//     throws PreconditionError) — never a silent wrong record set.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "platform/journal.hpp"
#include "service/journal.hpp"

namespace {

// ---------------------------------------------------------------------------
// Corpus builders: a handful of complete blocks in each format, exercising
// the optional directives (error lines, rewards, uncovered tasks).
// ---------------------------------------------------------------------------

std::string platform_journal_text() {
  std::string text = "mcs-journal-v1\nconfig seed=77 tasks=6 alpha=10\n";
  for (std::size_t round = 0; round < 4; ++round) {
    mcs::platform::JournalEntry entry;
    entry.report.round = round;
    entry.report.held = round != 2;
    entry.report.winners = round;
    entry.report.social_cost = 1.5 * static_cast<double>(round);
    entry.report.payout = 2.25 * static_cast<double>(round);
    entry.report.tasks_posted = 6;
    entry.report.tasks_completed = round + 1;
    entry.report.mean_required_pos = 0.6;
    entry.report.mean_achieved_pos = 0.7;
    for (std::size_t w = 0; w < round; ++w) {
      entry.report.winning_taxis.push_back(static_cast<mcs::trace::TaxiId>(10 * round + w));
    }
    if (round == 2) {
      entry.report.error = "engine: deadline exceeded";
    }
    entry.positions = {5, 17, 23};
    entry.rng_state = {round + 1, round + 2, round + 3, round + 4};
    entry.reputation.push_back(
        {static_cast<mcs::trace::TaxiId>(round), {}});
    text += mcs::platform::to_text(entry);
  }
  return text;
}

std::string service_journal_text() {
  std::string text =
      "mcs-service-journal-v1\nconfig shards=4 policy=0 alpha=10\n";
  for (std::size_t round = 0; round < 4; ++round) {
    mcs::service::ServiceJournalRecord record;
    record.round = round;
    record.users = 100 + round;
    record.tasks = 12;
    record.shards_run = 4;
    record.straddlers = round;
    switch (round) {
      case 0:
        record.status = mcs::auction::AuctionStatus::kOk;
        record.outcome.allocation.feasible = true;
        record.outcome.allocation.winners = {1, 5, 9};
        record.outcome.allocation.total_cost = 37.25;
        for (mcs::auction::UserId user : record.outcome.allocation.winners) {
          mcs::auction::WinnerReward reward;
          reward.user = user;
          reward.critical_contribution = 0.5;
          reward.reward = {0.4, 12.5, 10.0};
          record.outcome.rewards.push_back(reward);
        }
        break;
      case 1:
        record.status = mcs::auction::AuctionStatus::kDegraded;
        record.outcome.degraded = true;
        record.outcome.allocation.winners = {2};
        record.outcome.allocation.total_cost = 4.0;
        record.outcome.uncovered_tasks = {3, 7};
        record.error = "shard 1: boom; shard 3: deadline";
        break;
      case 2:
        record.status = mcs::auction::AuctionStatus::kFailed;
        record.error = "shard 0: injected fault at shard-run (stream 2, hit 0)";
        break;
      default:
        record.status = mcs::auction::AuctionStatus::kTimedOut;
        record.error = "watchdog: round still running after 0.5s";
        break;
    }
    text += mcs::service::to_text(record);
  }
  return text;
}

// ---------------------------------------------------------------------------
// Format adaptors so one fuzz driver covers both journals.
// ---------------------------------------------------------------------------

struct PlatformFormat {
  static constexpr const char* kName = "mcs-journal-v1";
  static constexpr const char* kFingerprint = "seed=77 tasks=6 alpha=10";
  struct Parsed {
    std::vector<std::size_t> rounds;
    std::size_t valid_bytes = 0;
    std::string config;
  };
  static Parsed parse(const std::string& text) {
    const auto replay = mcs::platform::parse_journal(text);
    Parsed parsed;
    parsed.valid_bytes = replay.valid_bytes;
    parsed.config = replay.config;
    for (const auto& entry : replay.entries) {
      parsed.rounds.push_back(entry.report.round);
    }
    return parsed;
  }
  static void append_round(const std::filesystem::path& path, std::size_t round) {
    mcs::platform::JournalWriter writer(path, kFingerprint);
    mcs::platform::JournalEntry entry;
    entry.report.round = round;
    entry.positions = {5, 17, 23};
    writer.append(entry);
  }
};

struct ServiceFormat {
  static constexpr const char* kName = "mcs-service-journal-v1";
  static constexpr const char* kFingerprint = "shards=4 policy=0 alpha=10";
  struct Parsed {
    std::vector<std::size_t> rounds;
    std::size_t valid_bytes = 0;
    std::string config;
  };
  static Parsed parse(const std::string& text) {
    const auto replay = mcs::service::parse_service_journal(text);
    Parsed parsed;
    parsed.valid_bytes = replay.valid_bytes;
    parsed.config = replay.config;
    for (const auto& record : replay.records) {
      parsed.rounds.push_back(static_cast<std::size_t>(record.round));
    }
    return parsed;
  }
  static void append_round(const std::filesystem::path& path, std::size_t round) {
    mcs::service::ServiceJournalWriter writer(path, kFingerprint);
    mcs::service::ServiceJournalRecord record;
    record.round = round;
    record.users = 100;
    record.tasks = 12;
    writer.append(record);
  }
};

template <typename Format>
void expect_contiguous_prefix(const typename Format::Parsed& parsed,
                              std::size_t max_rounds, const std::string& label) {
  ASSERT_LE(parsed.rounds.size(), max_rounds) << label;
  for (std::size_t k = 0; k < parsed.rounds.size(); ++k) {
    EXPECT_EQ(parsed.rounds[k], k) << label;
  }
}

// Truncation at every byte offset: a crash mid-append must read back as the
// longest complete prefix, never as an error and never as extra records.
template <typename Format>
void fuzz_truncation(const std::string& intact) {
  const auto full = Format::parse(intact);
  ASSERT_EQ(full.rounds.size(), 4u) << Format::kName;
  ASSERT_EQ(full.valid_bytes, intact.size()) << Format::kName;

  std::size_t previous_records = 0;
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    const std::string label =
        std::string(Format::kName) + " truncated at byte " + std::to_string(cut);
    typename Format::Parsed parsed;
    ASSERT_NO_THROW(parsed = Format::parse(intact.substr(0, cut))) << label;
    expect_contiguous_prefix<Format>(parsed, full.rounds.size(), label);
    EXPECT_LE(parsed.valid_bytes, cut) << label;
    // More bytes can only reveal more complete blocks, never fewer.
    EXPECT_GE(parsed.rounds.size(), previous_records) << label;
    previous_records = parsed.rounds.size();

    // Recovery truncates the file to valid_bytes; that prefix must reparse
    // to exactly the same records with nothing further to drop.
    const auto reparsed = Format::parse(intact.substr(0, parsed.valid_bytes));
    EXPECT_EQ(reparsed.rounds, parsed.rounds) << label;
    EXPECT_EQ(reparsed.valid_bytes, parsed.valid_bytes) << label;
  }
  EXPECT_EQ(previous_records, full.rounds.size()) << Format::kName;
}

// Single-byte corruption anywhere: the parser must either throw (corruption
// detected) or return a self-consistent valid prefix (the damage landed in
// text that torn-tail recovery drops, or in a value field it faithfully
// carries — e.g. an error message byte). It must never crash, hang, or
// return a non-contiguous record set.
template <typename Format>
void fuzz_byte_flips(const std::string& intact) {
  const auto full = Format::parse(intact);
  mcs::common::Rng rng(20260808);
  for (std::size_t position = 0; position < intact.size(); ++position) {
    std::string mutated = intact;
    const auto flip = static_cast<unsigned char>(
        rng.uniform_int(1, 255));  // never a zero flip: always a real change
    mutated[position] = static_cast<char>(
        static_cast<unsigned char>(mutated[position]) ^ flip);
    const std::string label = std::string(Format::kName) + " byte " +
                              std::to_string(position) + " xor " +
                              std::to_string(flip);
    try {
      const auto parsed = Format::parse(mutated);
      expect_contiguous_prefix<Format>(parsed, full.rounds.size(), label);
      EXPECT_LE(parsed.valid_bytes, mutated.size()) << label;
      const auto reparsed = Format::parse(mutated.substr(0, parsed.valid_bytes));
      EXPECT_EQ(reparsed.rounds, parsed.rounds) << label;
      EXPECT_EQ(reparsed.valid_bytes, parsed.valid_bytes) << label;
    } catch (const mcs::common::PreconditionError&) {
      // Detected corruption before the last complete block — the contract's
      // loud path.
    }
  }
}

// Resume after truncation at every byte offset: the recovery path cuts the
// file to valid_bytes and reopens the writer, which must append the next
// block after the intact prefix AND keep the journal's fingerprint — a crash
// inside the `config` line must not leave a journal whose later rounds have
// no fingerprint (the next restart would refuse it).
template <typename Format>
void fuzz_resume_append(const std::string& intact) {
  // The pid keeps concurrent runs of this binary (say, two sanitizer test
  // presets at once) off each other's scratch file.
  const auto path = std::filesystem::temp_directory_path() /
                    ("mcs_journal_fuzz_" + std::to_string(::getpid()) + "_" +
                     ::testing::UnitTest::GetInstance()->current_test_info()->name());
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    const std::string label =
        std::string(Format::kName) + " resumed after truncation at byte " + std::to_string(cut);
    const auto prefix = Format::parse(intact.substr(0, cut));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << intact.substr(0, prefix.valid_bytes);
    }
    ASSERT_NO_THROW(Format::append_round(path, prefix.rounds.size())) << label;

    std::ifstream in(path, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    typename Format::Parsed resumed;
    ASSERT_NO_THROW(resumed = Format::parse(text)) << label;
    auto expected = prefix.rounds;
    expected.push_back(prefix.rounds.size());
    EXPECT_EQ(resumed.rounds, expected) << label;
    EXPECT_EQ(resumed.config, Format::kFingerprint) << label;
    EXPECT_EQ(resumed.valid_bytes, text.size()) << label;
  }
  std::filesystem::remove(path);
}

TEST(JournalFuzz, PlatformTruncationAlwaysRecoversAPrefix) {
  fuzz_truncation<PlatformFormat>(platform_journal_text());
}

TEST(JournalFuzz, ServiceTruncationAlwaysRecoversAPrefix) {
  fuzz_truncation<ServiceFormat>(service_journal_text());
}

TEST(JournalFuzz, PlatformByteFlipsNeverYieldSilentBadRecords) {
  fuzz_byte_flips<PlatformFormat>(platform_journal_text());
}

TEST(JournalFuzz, ServiceByteFlipsNeverYieldSilentBadRecords) {
  fuzz_byte_flips<ServiceFormat>(service_journal_text());
}

TEST(JournalFuzz, PlatformResumeAfterAnyTruncationAppendsAfterThePrefix) {
  fuzz_resume_append<PlatformFormat>(platform_journal_text());
}

TEST(JournalFuzz, ServiceResumeAfterAnyTruncationAppendsAfterThePrefix) {
  fuzz_resume_append<ServiceFormat>(service_journal_text());
}

}  // namespace
