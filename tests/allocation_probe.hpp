// Allocation probe for the "allocates only on the calling thread" tests:
// while armed, a replaced global operator new counts allocations made on
// any thread but the one that armed it. A malloc on an OpenMP worker opens
// a glibc arena that the process keeps for good, so builds that run a
// parallel region size their scratch on the calling thread.
//
// This header defines the replaced operator new and delete, which may
// exist once per program: include it from exactly one source file of a
// test executable.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

namespace sdcmd {
namespace {

std::atomic<bool> g_probe_armed{false};
std::atomic<int> g_foreign_allocations{0};
std::thread::id g_probe_owner;

void arm_allocation_probe() {
  g_foreign_allocations = 0;
  g_probe_owner = std::this_thread::get_id();
  g_probe_armed.store(true, std::memory_order_release);
}

int disarm_allocation_probe() {
  g_probe_armed.store(false, std::memory_order_release);
  return g_foreign_allocations.load();
}

void note_allocation() {
  if (g_probe_armed.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != g_probe_owner) {
    ++g_foreign_allocations;
  }
}

}  // namespace
}  // namespace sdcmd

// Replaces the allocation function every container goes through. The
// matching deletes are replaced too: a sanitizer's own operator delete
// rejects memory this operator new took from malloc.
void* operator new(std::size_t size) {
  sdcmd::note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
// GCC reads free() in a replaced operator delete as a mismatch with
// operator new; the operator new above allocates with malloc.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
