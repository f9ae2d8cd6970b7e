// The test binary's global allocation functions: malloc/free plus the
// largest-request record behind tests/allocation_probe.h.
#include "tests/allocation_probe.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};

void Note(size_t size) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

void* Allocate(size_t size, bool nothrow) {
  Note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(size_t size, std::align_val_t align, bool nothrow) {
  Note(size);
  void* p = nullptr;
  const size_t alignment =
      std::max(static_cast<size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) p = nullptr;
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return Allocate(n, false); }
void* operator new[](size_t n) { return Allocate(n, false); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, true);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, true);
}
void* operator new(size_t n, std::align_val_t a) {
  return AllocateAligned(n, a, false);
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateAligned(n, a, false);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a, true);
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a, true);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace largeea {

void StartAllocationProbe() {
  g_largest.store(0);
  g_tracking.store(true);
}

size_t StopAllocationProbe() {
  g_tracking.store(false);
  return g_largest.load();
}

}  // namespace largeea
