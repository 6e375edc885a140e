#include "obs/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace mcs::obs {

namespace {

std::atomic<bool> g_enabled{false};

// Every Registry gets a process-unique id; the thread-local shard cache keys
// on it so a thread that outlives a (test-local) Registry never dereferences
// the dead registry's shard when a new Registry reuses the address.
std::atomic<std::uint64_t> g_next_registry_id{1};

void append_json_number(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_json_number(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out += buffer;
}

void append_phase_json(std::string& out, const PhaseCounters& phase) {
  out += "{\"probes\":";
  append_json_number(out, phase.probes);
  out += ",\"deadline_polls\":";
  append_json_number(out, phase.deadline_polls);
  out += ",\"rounds\":";
  append_json_number(out, phase.rounds);
  out += ",\"heap_reevaluations\":";
  append_json_number(out, phase.heap_reevaluations);
  out += ",\"bisection_steps\":";
  append_json_number(out, phase.bisection_steps);
  out += ",\"dp_reuse_hits\":";
  append_json_number(out, phase.dp_reuse_hits);
  out += ",\"dp_reuse_fallbacks\":";
  append_json_number(out, phase.dp_reuse_fallbacks);
  out += ",\"dp_reuse_exact_solves\":";
  append_json_number(out, phase.dp_reuse_exact_solves);
  out += "}";
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ScopedTelemetry::ScopedTelemetry(bool on) : previous_(enabled()) { set_enabled(on); }

ScopedTelemetry::~ScopedTelemetry() { set_enabled(previous_); }

PhaseTimer::PhaseTimer(bool armed) : armed_(armed) {
  if (armed_) start_ = std::chrono::steady_clock::now();
}

double PhaseTimer::seconds() const {
  if (!armed_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

PhaseCounters& PhaseCounters::operator+=(const PhaseCounters& other) {
  probes += other.probes;
  deadline_polls += other.deadline_polls;
  rounds += other.rounds;
  heap_reevaluations += other.heap_reevaluations;
  bisection_steps += other.bisection_steps;
  dp_reuse_hits += other.dp_reuse_hits;
  dp_reuse_fallbacks += other.dp_reuse_fallbacks;
  dp_reuse_exact_solves += other.dp_reuse_exact_solves;
  return *this;
}

MechanismTelemetry& MechanismTelemetry::operator+=(const MechanismTelemetry& other) {
  enabled = enabled || other.enabled;
  winner_determination_seconds += other.winner_determination_seconds;
  rewards_seconds += other.rewards_seconds;
  degraded_events += other.degraded_events;
  winner_determination += other.winner_determination;
  rewards += other.rewards;
  return *this;
}

std::string to_json(const MechanismTelemetry& telemetry) {
  std::string out;
  out.reserve(256);
  out += "{\"enabled\":";
  out += telemetry.enabled ? "true" : "false";
  out += ",\"winner_determination_seconds\":";
  append_json_number(out, telemetry.winner_determination_seconds);
  out += ",\"rewards_seconds\":";
  append_json_number(out, telemetry.rewards_seconds);
  out += ",\"degraded_events\":";
  append_json_number(out, telemetry.degraded_events);
  out += ",\"winner_determination\":";
  append_phase_json(out, telemetry.winner_determination);
  out += ",\"rewards\":";
  append_phase_json(out, telemetry.rewards);
  out += "}";
  return out;
}

Registry::Registry() : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  // Leaked on purpose: worker threads (e.g. ThreadPool::shared()) may still
  // be incrementing their shards during static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

Registry::MetricId Registry::metric(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (MetricId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  if (names_.size() >= kMaxMetrics) {
    throw std::runtime_error("obs::Registry is full (kMaxMetrics=64): cannot register '" + name +
                             "'");
  }
  names_.push_back(name);
  return names_.size() - 1;
}

Registry::Shard& Registry::local_shard() {
  // Cache of (registry id → shard) for this thread. A plain vector scan: a
  // thread talks to one or two registries in practice (the global one, plus
  // possibly a test-local one).
  struct TlsEntry {
    std::uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<TlsEntry> tls_shards;
  for (const TlsEntry& entry : tls_shards) {
    if (entry.registry_id == id_) return *entry.shard;
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::move(owned));
  }
  tls_shards.push_back({id_, shard});
  return *shard;
}

void Registry::add(MetricId id, std::int64_t delta) {
  Shard& shard = local_shard();
  shard.cells[id].fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t Registry::Snapshot::value_of(const std::string& name) const {
  for (const auto& [metric_name, value] : values) {
    if (metric_name == name) return value;
  }
  return 0;
}

std::string Registry::Snapshot::to_json() const {
  std::string out;
  out.reserve(64 + values.size() * 32);
  out += "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;  // metric names are identifier-like; no escaping needed
    out += "\":";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
    out += buffer;
  }
  out += "}";
  return out;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.values.reserve(names_.size());
  for (MetricId id = 0; id < names_.size(); ++id) {
    std::int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->cells[id].load(std::memory_order_relaxed);
    }
    snap.values.emplace_back(names_[id], total);
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& cell : shard->cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace mcs::obs
