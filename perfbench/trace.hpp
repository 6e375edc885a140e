// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library's public functions;
// each carries a name, start, end, its parent span, and the round (or batch)
// id as its request identifier. Spans stay in memory until write_json.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::ptrdiff_t parent = -1;  ///< index into Tracer::spans(), -1 for a root
  double start_s = 0.0;        ///< seconds since the tracer's origin
  double end_s = 0.0;
};

/// Total and self time of every span of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the part covered by child spans
};

class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its index; close it with end().
  std::size_t begin(const std::string& name, std::uint64_t request, std::ptrdiff_t parent = -1);
  void end(std::size_t span);
  /// Records a span whose boundaries were observed elsewhere (for example a
  /// timestamp taken inside a telemetry sink).
  std::size_t add(const std::string& name, std::uint64_t request, std::ptrdiff_t parent,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals. Self time is the span's duration minus the union of
  /// its children's intervals (clipped to the span).
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as a JSON array; returns false when the file cannot
  /// be written.
  bool write_json(const std::string& path) const;

 private:
  double now() const { return at(std::chrono::steady_clock::now()); }
  double at(std::chrono::steady_clock::time_point point) const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request,
             std::ptrdiff_t parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::ptrdiff_t index() const { return static_cast<std::ptrdiff_t>(index_); }

 private:
  Tracer& tracer_;
  std::size_t index_;
};

}  // namespace perfbench
