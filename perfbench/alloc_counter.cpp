#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

void* allocate(std::size_t size) {
  if (t_counting) {
    ++t_allocations;
  }
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  return block;
}

void* allocate_aligned(std::size_t size, std::align_val_t alignment) {
  if (t_counting) {
    ++t_allocations;
  }
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + align - 1) / align * align;
  void* block = std::aligned_alloc(align, rounded);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  return block;
}

}  // namespace

namespace perfbench {

AllocationScope::AllocationScope() {
  t_allocations = 0;
  t_counting = true;
}

AllocationScope::~AllocationScope() { t_counting = false; }

std::uint64_t AllocationScope::count() const { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocate_aligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocate_aligned(size, alignment);
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete(void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }
