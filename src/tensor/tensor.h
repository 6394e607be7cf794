#ifndef RELGRAPH_TENSOR_TENSOR_H_
#define RELGRAPH_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel.h"

namespace relgraph {

/// Dense row-major float32 matrix (the only tensor rank the GNN stack
/// needs; vectors are 1×n or n×1 matrices).
///
/// `Tensor` is a plain value type with no autograd state — see
/// `tensor/autograd.h` for differentiable computation built on top of it.
///
/// Storage comes from the process-wide `FloatBufferPool`: constructors
/// acquire a recycled buffer and the destructor returns it, so steady-state
/// batch loops allocate nothing from the heap. A tensor can also be a
/// non-owning row *view* into another tensor (`RowView`), in which case it
/// carries no storage at all.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Uninitialized-to-zero tensor of the given shape.
  Tensor(int64_t rows, int64_t cols);

  /// Builds from a flat row-major buffer; `data.size()` must equal
  /// rows*cols.
  Tensor(int64_t rows, int64_t cols, std::vector<float> data);

  /// Copies deep-copy into pooled storage (copying a view materializes
  /// it); moves transfer the buffer or the aliasing pointer.
  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Zero-copy view of `nrows` consecutive rows of `parent` starting at
  /// `row_begin`. The view aliases the parent's storage: the caller must
  /// keep the parent alive for the view's lifetime (autograd nodes do this
  /// through their parent edge) and must not write through the view unless
  /// it also owns the parent.
  static Tensor RowView(const Tensor& parent, int64_t row_begin,
                        int64_t nrows);

  bool is_view() const { return view_data_ != nullptr; }

  static Tensor Zeros(int64_t rows, int64_t cols);
  static Tensor Ones(int64_t rows, int64_t cols);
  static Tensor Full(int64_t rows, int64_t cols, float value);
  static Tensor Identity(int64_t n);

  /// 1×n row vector from values.
  static Tensor Row(std::vector<float> values);

  /// n×1 column vector from values.
  static Tensor Col(std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t numel() const { return rows_ * cols_; }
  bool empty() const { return numel() == 0; }

  float& at(int64_t r, int64_t c) { return data()[r * cols_ + c]; }
  float at(int64_t r, int64_t c) const { return data()[r * cols_ + c]; }

  float* data() { return view_data_ ? view_data_ : data_.data(); }
  const float* data() const {
    return view_data_ ? view_data_ : data_.data();
  }

  /// Scalar accessor; requires numel()==1.
  float item() const;

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// In-place fill.
  void Fill(float value);

  /// In-place elementwise accumulate; shapes must match.
  void Add(const Tensor& other);

  /// In-place scale.
  void Scale(float s);

  /// Sum of all entries.
  float Sum() const;

  /// Mean of all entries (0 for empty).
  float Mean() const;

  /// Max absolute entry (0 for empty).
  float AbsMax() const;

  /// Frobenius norm.
  float Norm() const;

  /// Returns a new tensor with the given rows gathered (out[i] =
  /// this[indices[i]]).
  Tensor GatherRows(const std::vector<int64_t>& indices) const;

  /// Transposed copy.
  Tensor Transposed() const;

  /// Human-readable dump (small tensors only; larger are summarized).
  std::string ToString() const;

 private:
  /// Returns owned storage (if any) to the pool and drops view aliasing.
  void ReleaseStorage();

  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;        // owned storage; empty for views
  float* view_data_ = nullptr;     // aliased storage when is_view()
};

/// A weight matrix pre-packed into the cache-friendly panel layout the
/// packed GEMM microkernel consumes (see kern::PackB). Pack once per
/// weight version, reuse across every batch. Movable, not copyable; the
/// panel buffer is pooled like tensor storage.
struct PackedMatrix {
  PackedMatrix() = default;
  ~PackedMatrix();
  PackedMatrix(PackedMatrix&&) noexcept = default;
  PackedMatrix& operator=(PackedMatrix&&) noexcept = default;
  PackedMatrix(const PackedMatrix&) = delete;
  PackedMatrix& operator=(const PackedMatrix&) = delete;

  int64_t rows = 0;          ///< logical k of the source k×n matrix
  int64_t cols = 0;          ///< logical n of the source k×n matrix
  std::vector<float> data;   ///< panel-layout buffer
};

/// GEMM scheduling knobs, shared by every GEMM (fp32 and int8). GEMMs
/// below kGemmSerialFlops (m·n·k) run inline: pool synchronization would
/// dominate on the small matrices that make up most autograd glue. Larger
/// ones split over output rows in chunks of kGemmRowGrain. Each output
/// element's accumulation order is fixed by the kernel contract, so the
/// route never changes a bit; these are pure scheduling knobs.
inline constexpr int64_t kGemmSerialFlops = 1 << 15;
inline constexpr int64_t kGemmRowGrain = 8;

/// The GEMM routing decision: true when an m×k @ k×n GEMM should run on
/// the pool. Also counts the dispatch: one to gemm_parallel_total or
/// gemm_serial_total, and 2·m·n·k to gemm_flops_total.
bool GemmRunsParallel(int64_t m, int64_t n, int64_t k);

/// Runs an m×k @ k×n GEMM's output-row chunk body `row_chunk(i0, i1)`:
/// directly over [0, m) on the serial route, else through ParallelFor.
/// Every GEMM entry point dispatches through here.
template <typename RowChunk>
void DispatchGemmRows(int64_t m, int64_t n, int64_t k,
                      const RowChunk& row_chunk) {
  if (GemmRunsParallel(m, n, k)) {
    ParallelFor(0, m, kGemmRowGrain, row_chunk);
  } else {
    row_chunk(0, m);
  }
}

/// Packs `b` for reuse as the right operand of MatMulPacked.
PackedMatrix PackForMatMul(const Tensor& b);

/// out = a @ b using the packed panels; bit-identical to MatMul(a, b_src).
Tensor MatMulPacked(const Tensor& a, const PackedMatrix& b);

/// out = a @ b. Shapes must be compatible; checked.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// out = a @ b^T without materializing the transpose.
Tensor MatMulBT(const Tensor& a, const Tensor& b);

/// out = a^T @ b without materializing the transpose.
Tensor MatMulAT(const Tensor& a, const Tensor& b);

/// Elementwise binary helpers (shape-checked).
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds a 1×c row vector to every row of an r×c matrix.
Tensor AddRowBroadcast(const Tensor& m, const Tensor& row);

/// Column-wise sum producing a 1×c row vector.
Tensor SumRows(const Tensor& m);

/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& logits);

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_TENSOR_H_
