#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::at(std::chrono::steady_clock::time_point point) const {
  return std::chrono::duration<double>(point - origin_).count();
}

std::size_t Tracer::begin(const std::string& name, std::uint64_t request, std::ptrdiff_t parent) {
  spans_.push_back(Span{name, request, parent, now(), 0.0});
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) { spans_[span].end_s = now(); }

std::size_t Tracer::add(const std::string& name, std::uint64_t request, std::ptrdiff_t parent,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  spans_.push_back(Span{name, request, parent, at(start), at(end)});
  return spans_.size() - 1;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    auto& intervals = children[k];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = span.start_s;
    for (const auto& [start, end] : intervals) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_s);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_s += span.end_s - span.start_s;
    entry.self_s += span.end_s - span.start_s - covered;
  }
  return totals;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out.precision(12);
  out << "[\n";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    out << (k > 0 ? ",\n" : "") << "{\"id\":" << k << ",\"name\":\"" << span.name
        << "\",\"request\":" << span.request << ",\"parent\":" << span.parent
        << ",\"start_s\":" << span.start_s << ",\"end_s\":" << span.end_s << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
