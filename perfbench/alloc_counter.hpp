// Exact heap-allocation counter for the traced run. The benchmark binary
// replaces the global operator new family (alloc_counter.cpp); every
// allocation made on a thread while an AllocationScope is open on that thread
// is counted. Other threads, and the untraced run, are not counted, so the
// only cost outside a scope is one thread-local flag test per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

/// Counts heap allocations made on the calling thread between construction
/// and count(). Scopes do not nest.
class AllocationScope {
 public:
  AllocationScope();
  ~AllocationScope();
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  std::uint64_t count() const;
};

}  // namespace perfbench
