#ifndef RELGRAPH_CORE_BUFFER_POOL_H_
#define RELGRAPH_CORE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace relgraph {

/// Recycling pool for `std::vector<float>` backing buffers.
///
/// Every `Tensor` acquires its storage here and returns it on destruction,
/// so a steady-state training batch or warm serving request performs zero
/// tensor heap allocations: the buffers of the previous batch's autograd
/// tape are recycled into the next one. Buffers are binned by
/// power-of-two capacity — `Acquire(n)` returns a vector whose capacity is
/// at least `n` (so per-batch shape jitter within a bin still hits), with
/// unspecified size and contents; callers `assign` into it.
///
/// Determinism: the pool only changes *where* a buffer's bytes live, never
/// what is written into them — every acquired buffer is fully overwritten
/// by its tensor's constructor — so results are bit-identical with the
/// pool on, off (`RELGRAPH_ARENA=0`), warm, or cold.
///
/// Thread safety: all operations take one internal mutex; acquisition
/// happens per tensor (not per element), so contention is negligible next
/// to the kernels that run on the buffers.
///
/// Under AddressSanitizer the pool poisons buffers while they sit idle and
/// unpoisons them on acquisition, so a use-after-release (the classic bug
/// class recycling arenas hide) still faults instead of silently reading a
/// recycled batch.
class FloatBufferPool {
 public:
  /// Allocation observability for benchmarks and the zero-alloc tests.
  /// All counters are process-lifetime monotonic; diff them around a
  /// region to measure it.
  struct Stats {
    int64_t heap_allocs = 0;  ///< Acquire calls that hit the heap.
    int64_t pool_hits = 0;    ///< Acquire calls served from the pool.
    int64_t released = 0;     ///< buffers returned and kept for reuse
    int64_t dropped = 0;      ///< buffers freed (bin full or pool disabled)
    int64_t pooled_bytes = 0; ///< bytes of idle buffers currently pooled
  };

  /// The shared process-wide pool (never destroyed, so tensors with static
  /// storage duration can release safely at exit).
  static FloatBufferPool& Global();

  /// A vector with capacity >= n; size and contents are unspecified (the
  /// caller must assign/overwrite). n == 0 returns an empty vector without
  /// touching the pool.
  std::vector<float> Acquire(size_t n);

  /// Returns a buffer for reuse. Safe for any vector, including
  /// externally-allocated ones moved into tensors.
  void Release(std::vector<float>&& buf);

  Stats stats() const;

  /// True unless RELGRAPH_ARENA=0 disabled recycling at process start
  /// (allocation counting stays active either way).
  bool enabled() const { return enabled_; }

  /// Frees every pooled buffer (tests and memory-pressure hooks).
  void Clear();

 private:
  FloatBufferPool();

  // Buffers a bin may retain before Release starts freeing instead of
  // pooling: each bin holds up to ~kBinBudgetBytes of idle memory,
  // clamped to [kMinPerBin, kMaxPerBin] buffers. Byte-based so the
  // sub-KB classes — a training tape floats hundreds of small weight /
  // gradient / optimizer-slot buffers at once — are retained in bulk,
  // while a few huge buffers already pin plenty of memory.
  static size_t BinCap(int bin);
  static constexpr size_t kBinBudgetBytes = size_t{8} << 20;
  static constexpr size_t kMinPerBin = 8;
  static constexpr size_t kMaxPerBin = 4096;
  static constexpr int kNumBins = 48;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::vector<float>> bins_[kNumBins];
  std::atomic<int64_t> heap_allocs_{0};
  std::atomic<int64_t> pool_hits_{0};
  std::atomic<int64_t> released_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> pooled_bytes_{0};
};

/// Live payload bytes of every int8 representation: quantized
/// node-feature matrices, packed int8 weights and encoded embedding-cache
/// entries. fp32 tensor storage is already covered by FloatBufferPool
/// stats; this counter makes the low-precision footprint observable, not
/// asserted. Containers hold their bytes through ScopedQuantBytes, so the
/// value is exact at any instant. A relaxed atomic — cheap enough to
/// leave always-on.
int64_t QuantResidentBytes();

/// RAII byte registration: holds `bytes()` against QuantResidentBytes
/// for its lifetime. Movable (transfer of ownership), not copyable;
/// `Reset` re-registers after a payload is (re)built.
class ScopedQuantBytes {
 public:
  ScopedQuantBytes() = default;
  ~ScopedQuantBytes() { Reset(0); }
  ScopedQuantBytes(ScopedQuantBytes&& o) noexcept
      : bytes_(std::exchange(o.bytes_, 0)) {}
  ScopedQuantBytes& operator=(ScopedQuantBytes&& o) noexcept {
    if (this != &o) {
      Reset(0);
      bytes_ = std::exchange(o.bytes_, 0);
    }
    return *this;
  }
  ScopedQuantBytes(const ScopedQuantBytes&) = delete;
  ScopedQuantBytes& operator=(const ScopedQuantBytes&) = delete;

  void Reset(int64_t bytes);

  int64_t bytes() const { return bytes_; }

 private:
  int64_t bytes_ = 0;
};

}  // namespace relgraph

#endif  // RELGRAPH_CORE_BUFFER_POOL_H_
