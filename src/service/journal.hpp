// Append-only round-outcome journal (mcs-service-journal-v1): the campaign
// service's durability story. After every COMPUTED round the service appends
// one self-contained block holding the round's merged outcome; a service
// restarted on the same journal serves those rounds straight from disk
// (RoundOutcome::replayed_from_journal) instead of recomputing them, so a
// crashed traffic stream resumes with every settled round bit-identical.
//
// This file is only the payload codec. The framing — header, `config`
// fingerprint, torn-tail recovery, contiguous ids, the writer and the
// resume sequence — is common/block_log.hpp, shared with the campaign
// journal. Round blocks:
//
//     mcs-service-journal-v1
//     config shards=4 policy=0 alpha=10 ...   # fingerprint of the service
//     begin round 0
//     status ok                      # ok | degraded | timed-out | failed
//     users 100                      # sanity echo of the submitted round
//     tasks 12
//     shards_run 4
//     straddlers 3
//     feasible 1
//     degraded 0
//     winners 3 1 5 9                # count, then ascending global user ids
//     total_cost 37.25
//     uncovered 0                    # count, then ascending task indices
//     rewards 3                      # count, then one `reward` line each
//     reward 1 0.51 0.4 12.5 10      # user q̄ p̄ cost alpha
//     error <raw text>               # only present when non-empty
//     end round 0
//
// Services with online ingestion enabled additionally journal one block per
// flushed epoch. Epoch blocks are optional, so journals without them (every
// pre-online journal) parse unchanged:
//
//     begin epoch 0
//     status ok
//     arrivals 2                     # count, then one `arrival` line each
//     arrival 0 3.5 0.25             # user cost pos (submission order)
//     sample 1
//     updates 1                      # stage-boundary threshold relearns
//     decisions 2                    # count, then one `decision` line each
//     decision 0 0 sample 0 0 inf 0 0 0 0 50
//     decision 1 1 accept 1 1 0.082 0.41 0.33 5 10 33.2
//     totals 5 16.8 0.51 0.4 0      # cost worst_case q pos requirement_met
//     winners 1 1
//     end epoch 0
//
// Round and epoch ids are separate sequences, each contiguous from 0,
// interleaved in whatever order the service settled them. The `config` line
// fingerprints every knob that shapes an outcome (shard map, mechanism
// config); a journal written under a different configuration is refused,
// since its outcomes would not match what the service would compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "auction/engine.hpp"
#include "auction/online/mechanism.hpp"
#include "common/block_log.hpp"
#include "common/fault_injection.hpp"

namespace mcs::service {

/// Round identifier assigned by the service, sequential from 0.
using RoundId = std::uint64_t;

/// Epoch identifier of the online ingestion path, sequential from 0 (its own
/// sequence, independent of round ids).
using EpochId = std::uint64_t;

/// One journaled round: the merged outcome plus the round-shape echo used to
/// detect a diverging resubmission. Telemetry is deliberately not journaled
/// — it describes the run that computed the outcome, not the outcome.
struct ServiceJournalRecord {
  RoundId round = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  std::size_t users = 0;  ///< submitted round's user count
  std::size_t tasks = 0;  ///< submitted round's task count
  std::size_t shards_run = 0;
  std::size_t straddlers = 0;
  auction::MechanismOutcome outcome;
  std::string error;
};

/// One journaled online epoch (the continuous-feed ingestion path): the
/// submitted arrivals (the epoch's shape echo, and what a replay is checked
/// against) plus the full per-arrival decision log, so a restarted service
/// serves the epoch bit-identically without re-running the mechanism. Epoch
/// blocks are OPTIONAL lines of mcs-service-journal-v1 in the PR-4 telemetry
/// sense: journals without them (every pre-online journal) parse unchanged.
struct ServiceEpochRecord {
  EpochId epoch = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  /// The submitted arrivals in submission order (user id == arrival index).
  std::vector<auction::online::Arrival> arrivals;
  auction::online::OnlineOutcome outcome;
  std::string error;
};

/// Serializes one record as a journal block (without the file header).
std::string to_text(const ServiceJournalRecord& record);
std::string to_text(const ServiceEpochRecord& record);

/// A parsed service journal: complete records plus what a safe append needs.
struct ReplayedServiceJournal {
  std::vector<ServiceJournalRecord> records;  ///< ascending, contiguous from 0
  /// Online epochs, ascending and contiguous from 0 — their own sequence,
  /// interleaved with round blocks in file order. Empty for journals written
  /// before the online ingestion path existed.
  std::vector<ServiceEpochRecord> epochs;
  /// Byte length of the valid prefix; anything past it is a torn tail.
  std::size_t valid_bytes = 0;
  /// Raw `config` fingerprint; empty when the journal has none.
  std::string config;
};

/// Parses a full journal's text. Throws PreconditionError (with line number)
/// on a bad header or corruption before the last complete block; an
/// incomplete trailing block is silently dropped.
ReplayedServiceJournal parse_service_journal(const std::string& text);

/// Loads and parses a journal file. A missing file is an empty journal;
/// other I/O failures throw std::runtime_error naming the path.
ReplayedServiceJournal load_service_journal(const std::filesystem::path& path);

/// Appends records to a journal file. Construction runs the block-log
/// resume sequence: it refuses a journal written under another fingerprint,
/// truncates a torn tail, and writes whatever header and `config` line the
/// file lacks. When `replayed` is non-null it receives the parsed journal.
class ServiceJournalWriter {
 public:
  explicit ServiceJournalWriter(const std::filesystem::path& path,
                                const std::string& config_fingerprint = {},
                                ReplayedServiceJournal* replayed = nullptr);

  /// Installs the kJournalAppend fail point (test/bench facility). The fault
  /// fires before any byte is written, so the journal stays a valid prefix.
  void set_fault_injector(std::shared_ptr<const common::FaultInjector> injector);

  void append(const ServiceJournalRecord& record);
  void append(const ServiceEpochRecord& record);

 private:
  void append_text(const std::string& text, std::uint64_t fault_stream);

  common::BlockLogWriter writer_;
  std::shared_ptr<const common::FaultInjector> fault_injector_;
};

}  // namespace mcs::service
