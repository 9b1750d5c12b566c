#include "src/runtime/allocator.h"

#include <algorithm>
#include <cstdlib>

#include "src/support/logging.h"

namespace nimble {
namespace runtime {

namespace {
// 256-byte granularity: fine enough to keep footprint close to a static
// plan (the paper reports <=8% extra), coarse enough that recurring dynamic
// shapes hit the same bucket.
size_t RoundUpBucket(size_t n) {
  if (n < 16) n = 16;
  return (n + 255) / 256 * 256;
}

/// What SystemAlloc hands out for a request: `size` padded to the
/// (at least max_align_t) alignment, never zero.
size_t SystemBlockSize(size_t size, size_t alignment) {
  if (alignment < alignof(std::max_align_t)) alignment = alignof(std::max_align_t);
  size_t padded = (size + alignment - 1) / alignment * alignment;
  return padded == 0 ? alignment : padded;
}
}  // namespace

Buffer::~Buffer() {
  if (source != nullptr && data != nullptr) source->Free(this);
}

AllocStats Allocator::stats() const {
  int64_t raw[kNumCounters];
  for (int i = 0; i < kNumCounters; ++i) raw[i] = counters_[i].Value();
  AllocStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.alloc_calls = raw[kAllocCalls] - baseline_[kAllocCalls];
    s.system_allocs = raw[kSystemAllocs] - baseline_[kSystemAllocs];
    s.bytes_allocated = raw[kBytesAllocated] - baseline_[kBytesAllocated];
    s.free_calls = raw[kFreeCalls] - baseline_[kFreeCalls];
    s.bytes_freed = raw[kBytesFreed] - baseline_[kBytesFreed];
    s.pool_hits = raw[kPoolHits] - baseline_[kPoolHits];
    s.pool_refills = raw[kPoolRefills] - baseline_[kPoolRefills];
    s.pool_frees = raw[kPoolFrees] - baseline_[kPoolFrees];
  }
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  return s;
}

void Allocator::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumCounters; ++i) baseline_[i] = counters_[i].Value();
  live_bytes_.store(0, std::memory_order_relaxed);
  peak_bytes_.store(0, std::memory_order_relaxed);
}

void Allocator::AddLive(int64_t bytes) {
  int64_t live =
      live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_bytes_.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
  }
}

std::shared_ptr<Buffer> Allocator::SystemAlloc(size_t size, size_t alignment,
                                               Device device) {
  size_t padded = SystemBlockSize(size, alignment);
  if (alignment < alignof(std::max_align_t)) alignment = alignof(std::max_align_t);
  void* ptr = std::aligned_alloc(alignment, padded);
  NIMBLE_CHECK(ptr != nullptr) << "allocation of " << size << " bytes failed";
  auto buf = std::make_shared<Buffer>();
  buf->data = ptr;
  buf->size = padded;
  buf->device = device;
  buf->source = this;
  Count(kSystemAllocs);
  return buf;
}

void Allocator::SystemFree(Buffer* buffer) {
  std::free(buffer->data);
  buffer->data = nullptr;
}

size_t Allocator::BlockSize(size_t size, size_t alignment) const {
  return SystemBlockSize(size, alignment);
}

void Allocator::Free(Buffer* buffer) {
  Count(kFreeCalls);
  Count(kBytesFreed, static_cast<int64_t>(buffer->size));
  SubLive(static_cast<int64_t>(buffer->size));
  SystemFree(buffer);
}

std::shared_ptr<Buffer> NaiveAllocator::Alloc(size_t size, size_t alignment,
                                              Device device) {
  Count(kAllocCalls);
  auto buf = SystemAlloc(size, alignment, device);
  // Count the block actually handed out (alignment-padded), not the bytes
  // requested: bytes_allocated, bytes_freed, and live_bytes then share one
  // base, and allocated == freed + live holds exactly at any quiescent
  // point (the drain-leak sentinel in tests/test_serve.cc).
  Count(kBytesAllocated, static_cast<int64_t>(buf->size));
  AddLive(static_cast<int64_t>(buf->size));
  return buf;
}

PoolingAllocator::~PoolingAllocator() { Trim(); }

size_t PoolingAllocator::BlockSize(size_t size, size_t alignment) const {
  // A miss pads the bucket like SystemAlloc; a hit hands out the bucket,
  // which is the same size for every alignment up to 256.
  return SystemBlockSize(RoundUpBucket(size), alignment);
}

std::shared_ptr<Buffer> PoolingAllocator::Alloc(size_t size, size_t alignment,
                                                Device device) {
  Count(kAllocCalls);
  size_t bucket = RoundUpBucket(size);
  Key key{device.type, device.id, bucket};
  void* recycled = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pool_.find(key);
    if (it != pool_.end() && !it->second.empty()) {
      recycled = it->second.back();
      it->second.pop_back();
      cached_bytes_ -= bucket;
    }
  }
  if (recycled != nullptr) {
    Count(kPoolHits);
    obs::RecordPoolEvent(obs::PoolEvent::kHit);
    auto buf = std::make_shared<Buffer>();
    buf->data = recycled;
    buf->size = bucket;
    buf->device = device;
    buf->source = this;
    // Same single-base rule as NaiveAllocator::Alloc: count the bucket the
    // caller gets, so allocated == freed + live stays an identity.
    Count(kBytesAllocated, static_cast<int64_t>(bucket));
    AddLive(static_cast<int64_t>(bucket));
    return buf;
  }
  obs::RecordPoolEvent(obs::PoolEvent::kMiss);
  auto buf = SystemAlloc(bucket, alignment, device);
  Count(kBytesAllocated, static_cast<int64_t>(buf->size));
  AddLive(static_cast<int64_t>(buf->size));
  return buf;
}

void PoolingAllocator::Free(Buffer* buffer) {
  Count(kFreeCalls);
  Count(kBytesFreed, static_cast<int64_t>(buffer->size));
  SubLive(static_cast<int64_t>(buffer->size));
  bool pooled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_bytes_ + buffer->size <= max_cached_bytes_) {
      Key key{buffer->device.type, buffer->device.id, buffer->size};
      pool_[key].push_back(buffer->data);
      cached_bytes_ += buffer->size;
      buffer->data = nullptr;
      pooled = true;
    }
  }
  if (pooled) {
    Count(kPoolRefills);
    obs::RecordPoolEvent(obs::PoolEvent::kRefill);
  } else {
    Count(kPoolFrees);
    obs::RecordPoolEvent(obs::PoolEvent::kFree);
    SystemFree(buffer);
  }
}

void PoolingAllocator::Trim() {
  int64_t trimmed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, blocks] : pool_) {
      for (void* ptr : blocks) std::free(ptr);
      trimmed += static_cast<int64_t>(blocks.size());
      blocks.clear();
    }
    cached_bytes_ = 0;
  }
  if (trimmed > 0) {
    Count(kPoolFrees, trimmed);
    obs::RecordPoolEvent(obs::PoolEvent::kFree, trimmed);
  }
}

std::vector<obs::PoolClassOccupancy> PoolingAllocator::PoolClasses() const {
  std::map<int64_t, int64_t> blocks_by_size;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, blocks] : pool_) {
      if (!blocks.empty()) {
        blocks_by_size[static_cast<int64_t>(key.size)] +=
            static_cast<int64_t>(blocks.size());
      }
    }
  }
  std::vector<obs::PoolClassOccupancy> out;
  out.reserve(blocks_by_size.size());
  for (const auto& [bucket, blocks] : blocks_by_size) {
    out.push_back({bucket, blocks, bucket * blocks});
  }
  return out;
}

NaiveAllocator* GlobalNaiveAllocator() {
  static NaiveAllocator alloc;
  return &alloc;
}

PoolingAllocator* GlobalPoolingAllocator() {
  static PoolingAllocator alloc;
  return &alloc;
}

}  // namespace runtime
}  // namespace nimble
