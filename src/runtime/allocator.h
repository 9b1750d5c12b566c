// Memory allocators backing tensor storage.
//
// Two strategies, mirroring the paper's §4.3 memory-planning study:
//  - NaiveAllocator: one malloc/free per request (what an eager framework
//    effectively does per operator output).
//  - PoolingAllocator: size-bucketed free lists that recycle storage blocks,
//    used by the VM for dynamically-sized allocations; combined with the
//    static storage-coalescing pass this reproduces the reported reductions
//    in allocation count and latency.
//
// Thread-safety contract (serving subsystem, src/serve/):
//   All Allocator implementations are safe for concurrent Alloc/Free from
//   multiple threads. Free-list bookkeeping is serialized by an internal
//   mutex; statistics are NOT behind it — counters shard across
//   cache-line-padded per-thread cells (obs::Counter, the same 16-cell
//   design as the metrics plane) and live/peak are a relaxed atomic pair,
//   so accounting never adds contention to the allocation hot path and
//   stats() may be scraped concurrently from any thread. Buffers may be
//   allocated on one thread and released on another (the refcounted Buffer
//   calls back into its source allocator from whichever thread drops the
//   last reference). The serving VMPool still gives each worker VM its
//   *own* PoolingAllocator so the free-list mutex is uncontended and each
//   worker's lists stay warm with the bucket sizes it serves.
//
// Observability: every PoolingAllocator additionally records its pool
// events (hit/miss/refill/free) into the process-global ledger exported at
// /metrics as nimble_pool_events_total{event=...}; per-allocator breakdowns
// (per worker, per model) are sampled from stats()/PoolClasses() by
// serve::Server::MemoryScopes for GET /debug/memory. See src/obs/memory.h.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/memory.h"
#include "src/obs/metrics.h"
#include "src/runtime/device.h"

namespace nimble {
namespace runtime {

/// A raw storage block. Refcounted via shared_ptr; freed back to its
/// allocator on destruction.
class Allocator;

struct Buffer {
  void* data = nullptr;
  size_t size = 0;
  Device device;
  Allocator* source = nullptr;

  ~Buffer();
};

/// Statistics used by tests, the memory-planning benchmark, and the
/// /debug/memory exporter. A stats() snapshot merges the sharded counters;
/// it is monotone but may miss increments in flight during the merge —
/// exactly the consistency a scrape expects. live/peak are exact (single
/// atomic pair, not sharded: peak = max-over-time of live needs the true
/// running sum, and each serving allocator is effectively single-writer).
struct AllocStats {
  int64_t alloc_calls = 0;     // requests served
  int64_t system_allocs = 0;   // requests that hit the OS allocator
  int64_t bytes_allocated = 0; // cumulative bytes of blocks handed out
                               // (bucket/alignment-padded — same base as
                               // bytes_freed and live_bytes, so
                               // allocated == freed + live exactly)
  int64_t peak_bytes = 0;      // high-water mark of live bytes
  int64_t live_bytes = 0;
  int64_t free_calls = 0;      // buffers released back to the allocator
  int64_t bytes_freed = 0;     // cumulative bytes of those buffers
  int64_t pool_hits = 0;       // allocs served from a free list
  int64_t pool_refills = 0;    // frees that returned a block to a free list
  int64_t pool_frees = 0;      // blocks released to the OS (cap or Trim)
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Allocates a block of at least `size` bytes aligned to `alignment`.
  virtual std::shared_ptr<Buffer> Alloc(size_t size, size_t alignment,
                                        Device device) = 0;

  /// Called by ~Buffer. Default releases to the OS.
  virtual void Free(Buffer* buffer);

  /// The size of the block Alloc(size, alignment, ...) hands out, so a
  /// holder of a block can tell whether a fresh one would be the same (the
  /// VM's recycle table). Default: the OS allocation's padded size.
  virtual size_t BlockSize(size_t size, size_t alignment) const;

  /// Merged snapshot of the sharded counters (minus the ResetStats
  /// baseline) plus the exact live/peak pair. Lock-free on the counters;
  /// takes the mutex only to read the baseline consistently.
  AllocStats stats() const;

  /// Re-baselines every counter to zero and clears live/peak. Intended for
  /// benchmarks measuring deltas across phases; counters keep accumulating
  /// underneath (the sharded cells cannot be zeroed while other threads
  /// record), stats() simply subtracts the snapshot taken here.
  void ResetStats();

 protected:
  /// Sharded counter slots backing AllocStats (minus live/peak).
  enum CounterId {
    kAllocCalls = 0,
    kSystemAllocs,
    kBytesAllocated,
    kFreeCalls,
    kBytesFreed,
    kPoolHits,
    kPoolRefills,
    kPoolFrees,
    kNumCounters,
  };
  /// One relaxed add on the calling thread's cell.
  void Count(CounterId id, int64_t delta = 1) {
    counters_[id].Increment(delta);
  }
  /// live += bytes, folding the new value into peak (relaxed CAS loop).
  void AddLive(int64_t bytes);
  void SubLive(int64_t bytes) {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// SystemAlloc/SystemFree hit the OS allocator; they update only the
  /// sharded counters, so they need no lock.
  std::shared_ptr<Buffer> SystemAlloc(size_t size, size_t alignment, Device device);
  void SystemFree(Buffer* buffer);

  /// Serializes free-list bookkeeping (PoolingAllocator) and the
  /// ResetStats baseline. No longer guards counters.
  mutable std::mutex mu_;

 private:
  obs::Counter counters_[kNumCounters];
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  /// Raw counter values at the last ResetStats (guarded by mu_).
  int64_t baseline_[kNumCounters] = {};
};

/// malloc/free per request.
class NaiveAllocator : public Allocator {
 public:
  std::shared_ptr<Buffer> Alloc(size_t size, size_t alignment, Device device) override;
};

/// Size-bucketed recycling pool. Blocks are rounded up to the next power of
/// two and returned to per-(device,size) free lists instead of the OS.
/// Safe for concurrent use; see the thread-safety contract above.
class PoolingAllocator : public Allocator {
 public:
  explicit PoolingAllocator(size_t max_cached_bytes = 1ull << 30)
      : max_cached_bytes_(max_cached_bytes) {}
  ~PoolingAllocator() override;

  std::shared_ptr<Buffer> Alloc(size_t size, size_t alignment, Device device) override;
  void Free(Buffer* buffer) override;
  size_t BlockSize(size_t size, size_t alignment) const override;

  /// Releases every cached block back to the OS. Thread-safe (takes the
  /// allocator mutex); safe while other threads allocate, though it only
  /// trims what is free at that instant.
  void Trim();

  size_t cached_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cached_bytes_;
  }

  /// Free-list occupancy per bucket size (merged across devices), for the
  /// /debug/memory per-size-class table. Takes the allocator mutex.
  std::vector<obs::PoolClassOccupancy> PoolClasses() const;

 private:
  struct Key {
    DeviceType type;
    int id;
    size_t size;
    bool operator<(const Key& o) const {
      if (type != o.type) return type < o.type;
      if (id != o.id) return id < o.id;
      return size < o.size;
    }
  };
  std::map<Key, std::vector<void*>> pool_;
  size_t cached_bytes_ = 0;
  size_t max_cached_bytes_;
};

/// Process-wide default allocators, never destroyed. A VirtualMachine
/// constructed without an explicit allocator uses the pooling one; serving
/// pool workers instead lease *private* PoolingAllocators (see
/// src/serve/vm_pool.h) so their hot paths never contend on these.
NaiveAllocator* GlobalNaiveAllocator();
PoolingAllocator* GlobalPoolingAllocator();

}  // namespace runtime
}  // namespace nimble
