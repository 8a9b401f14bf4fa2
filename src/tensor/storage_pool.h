#ifndef LIPFORMER_TENSOR_STORAGE_POOL_H_
#define LIPFORMER_TENSOR_STORAGE_POOL_H_

#include <atomic>
#include <cstdint>

// Size-bucketed, thread-safe storage pool behind every Tensor (see
// DESIGN.md "Memory architecture"). A Storage handle is an intrusively
// refcounted float block: the refcount lives in a header in front of the
// data, so copying a Tensor costs one relaxed atomic increment and no
// allocation. When the last handle releases a block it is parked on a
// per-size-class freelist instead of freed, and the next acquisition of
// the same class pops it back — steady-state training and inference run
// with (near) zero mallocs per step.
//
// Contents of an acquired block are UNINITIALIZED (possibly stale data
// from a previous tensor). Tensor::Empty exposes this directly; callers
// must write every element before reading. Tensor(Shape) and
// Tensor::Zeros keep their zero-fill semantics on top of Acquire.
//
// The pool never changes numerics: it only recycles memory.
// SetStoragePoolEnabled(false) turns it off (every acquire is a heap
// alloc, every release a free); tests use it to compare against the
// pooled path. Blocks remember how they were allocated, so toggling
// mid-process is safe.

namespace lipformer {

namespace internal {

// Header preceding the float payload inside one heap allocation. `next`
// links blocks parked on a freelist; `pooled` records whether release
// should try to park the block (fixed at allocation time).
struct alignas(64) StorageBlock {
  std::atomic<int64_t> refs;
  int64_t capacity;  // floats, a size-class power of two
  int32_t size_class;
  bool pooled;
  StorageBlock* next;

  float* data() {
    return reinterpret_cast<float*>(reinterpret_cast<char*>(this) +
                                    sizeof(StorageBlock));
  }
};

}  // namespace internal

// Refcounted handle to a pooled float block. Default-constructed handles
// are empty (data() == nullptr).
class Storage {
 public:
  Storage() = default;
  ~Storage() { Release(); }
  Storage(const Storage& other) : block_(other.block_) { Retain(); }
  Storage& operator=(const Storage& other) {
    if (block_ != other.block_) {
      Release();
      block_ = other.block_;
      Retain();
    }
    return *this;
  }
  Storage(Storage&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  Storage& operator=(Storage&& other) noexcept {
    if (this != &other) {
      Release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }

  // Returns a handle to at least `numel` floats of UNINITIALIZED memory
  // (64-byte aligned). numel <= 0 is treated as the minimum size class.
  static Storage Acquire(int64_t numel);

  float* data() const { return block_ ? block_->data() : nullptr; }
  int64_t capacity() const { return block_ ? block_->capacity : 0; }
  explicit operator bool() const { return block_ != nullptr; }
  bool SharesWith(const Storage& other) const {
    return block_ == other.block_;
  }

 private:
  void Retain() {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release();

  internal::StorageBlock* block_ = nullptr;
};

// Monotonic counters (reset via ResetStoragePoolCounters) plus live
// gauges. acquires == pool_hits + heap_allocs.
struct StoragePoolStats {
  int64_t acquires = 0;     // Storage::Acquire calls
  int64_t pool_hits = 0;    // served from a freelist
  int64_t heap_allocs = 0;  // served by operator new
  int64_t bytes_live = 0;   // gauge: bytes in blocks currently referenced
  int64_t bytes_pooled = 0; // gauge: bytes parked on freelists
};

StoragePoolStats GetStoragePoolStats();
void ResetStoragePoolCounters();  // zeroes counters, keeps the gauges

// Pool on/off (on at startup); toggling only affects blocks allocated
// afterwards.
bool StoragePoolEnabled();
void SetStoragePoolEnabled(bool enabled);

// Frees every parked block. Call between benchmark configurations or in
// tests that assert on exact pool behaviour.
void ClearStoragePool();

// The capacity (in floats) Acquire would reserve for `numel` elements:
// the next power of two, with a 16-float minimum. Exposed for tests.
int64_t StorageCapacityForNumel(int64_t numel);

}  // namespace lipformer

#endif  // LIPFORMER_TENSOR_STORAGE_POOL_H_
