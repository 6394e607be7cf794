#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "core/buffer_pool.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "tensor/simd_kernels.h"

namespace relgraph {

namespace {

// Elementwise tensors below this size run serially: pool synchronization
// would dominate on the small matrices that make up most autograd glue.
// The threshold only routes between code paths that produce identical
// bits, so it is a pure scheduling knob (the GEMM knobs live in tensor.h).
constexpr int64_t kElemSerial = 1 << 15;

// Parallel grains. Elementwise ops split over the flat buffer. Reductions
// use kReduceGrain as their fixed chunk size — part of the numeric
// contract, never a function of thread count.
constexpr int64_t kElemGrain = 1 << 14;
constexpr int64_t kReduceGrain = 1 << 15;

}  // namespace

Tensor::Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
  RELGRAPH_CHECK(rows >= 0 && cols >= 0);
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  data_ = FloatBufferPool::Global().Acquire(n);
  // Pooled buffers come back with unspecified contents; assign (never
  // resize) so recycled bytes are always overwritten.
  data_.assign(n, 0.0f);
}

Tensor::Tensor(int64_t rows, int64_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  RELGRAPH_CHECK(static_cast<int64_t>(data_.size()) == rows * cols)
      << "data size " << data_.size() << " != " << rows << "x" << cols;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  const size_t n = static_cast<size_t>(other.numel());
  data_ = FloatBufferPool::Global().Acquire(n);
  const float* src = other.data();
  data_.assign(src, src + n);
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)),
      view_data_(other.view_data_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.view_data_ = nullptr;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  const size_t n = static_cast<size_t>(other.numel());
  const float* src = other.data();
  if (view_data_ != nullptr || data_.capacity() < n) {
    ReleaseStorage();
    data_ = FloatBufferPool::Global().Acquire(n);
  }
  data_.assign(src, src + n);
  rows_ = other.rows_;
  cols_ = other.cols_;
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  ReleaseStorage();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  view_data_ = other.view_data_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.view_data_ = nullptr;
  return *this;
}

Tensor::~Tensor() { ReleaseStorage(); }

void Tensor::ReleaseStorage() {
  view_data_ = nullptr;
  FloatBufferPool::Global().Release(std::move(data_));
}

Tensor Tensor::RowView(const Tensor& parent, int64_t row_begin,
                       int64_t nrows) {
  RELGRAPH_CHECK(row_begin >= 0 && nrows >= 0 &&
                 row_begin + nrows <= parent.rows_)
      << "row view [" << row_begin << ", " << row_begin + nrows << ") of "
      << parent.rows_ << " rows";
  Tensor v;
  v.rows_ = nrows;
  v.cols_ = parent.cols_;
  v.view_data_ =
      const_cast<float*>(parent.data()) + row_begin * parent.cols_;
  return v;
}

Tensor Tensor::Zeros(int64_t rows, int64_t cols) { return Tensor(rows, cols); }

Tensor Tensor::Ones(int64_t rows, int64_t cols) {
  return Full(rows, cols, 1.0f);
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Identity(int64_t n) {
  Tensor t(n, n);
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::Row(std::vector<float> values) {
  int64_t n = static_cast<int64_t>(values.size());
  return Tensor(1, n, std::move(values));
}

Tensor Tensor::Col(std::vector<float> values) {
  int64_t n = static_cast<int64_t>(values.size());
  return Tensor(n, 1, std::move(values));
}

float Tensor::item() const {
  RELGRAPH_CHECK(numel() == 1) << "item() on tensor with " << numel()
                               << " elements";
  return data()[0];
}

void Tensor::Fill(float value) {
  float* d = data();
  std::fill(d, d + numel(), value);
}

void Tensor::Add(const Tensor& other) {
  RELGRAPH_CHECK(SameShape(other));
  float* dst = data();
  const float* src = other.data();
  ParallelFor(0, numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    kern::AddInto(dst + lo, src + lo, hi - lo);
  });
}

void Tensor::Scale(float s) {
  float* dst = data();
  ParallelFor(0, numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    kern::ScaleInPlace(dst + lo, s, hi - lo);
  });
}

float Tensor::Sum() const {
  // Deterministic chunked reduction: chunk boundaries depend only on the
  // size, partials fold in chunk order — bit-identical at any thread
  // count (and identical to the single-loop fold for tensors that fit in
  // one chunk).
  const float* src = data();
  const double total = ParallelReduce<double>(
      0, numel(), kReduceGrain, 0.0,
      [src](int64_t lo, int64_t hi) {
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) acc += src[i];
        return acc;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(total);
}

float Tensor::Mean() const {
  if (data_.empty()) return 0.0f;
  return Sum() / static_cast<float>(data_.size());
}

float Tensor::AbsMax() const {
  const float* src = data();
  return ParallelReduce<float>(
      0, numel(), kReduceGrain, 0.0f,
      [src](int64_t lo, int64_t hi) {
        float m = 0.0f;
        for (int64_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(src[i]));
        return m;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

float Tensor::Norm() const {
  const float* src = data();
  const double total = ParallelReduce<double>(
      0, numel(), kReduceGrain, 0.0,
      [src](int64_t lo, int64_t hi) {
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(src[i]) * src[i];
        }
        return acc;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(std::sqrt(total));
}

Tensor Tensor::GatherRows(const std::vector<int64_t>& indices) const {
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out(n, cols_);
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, cols_));
  const float* src = data();
  float* dst = out.data();
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t r = indices[static_cast<size_t>(i)];
      RELGRAPH_CHECK(r >= 0 && r < rows_)
          << "gather row " << r << " of " << rows_;
      std::copy(src + r * cols_, src + (r + 1) * cols_, dst + i * cols_);
    }
  });
  return out;
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  if (numel() < kElemSerial) {
    for (int64_t r = 0; r < rows_; ++r) {
      for (int64_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
    }
    return out;
  }
  // 32x32 tiles keep both the read and the write side cache-resident;
  // tiles write disjoint outputs so any schedule gives identical bits.
  constexpr int64_t kTile = 32;
  const float* src = data();
  float* dst = out.data();
  ParallelFor(0, cols_, kTile, [&](int64_t c0, int64_t c1) {
    for (int64_t r0 = 0; r0 < rows_; r0 += kTile) {
      const int64_t r1 = std::min(rows_, r0 + kTile);
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t r = r0; r < r1; ++r) {
          dst[c * rows_ + r] = src[r * cols_ + c];
        }
      }
    }
  });
  return out;
}

std::string Tensor::ToString() const {
  std::string s = StrFormat("Tensor(%lld x %lld)",
                            static_cast<long long>(rows_),
                            static_cast<long long>(cols_));
  if (numel() > 64) {
    s += StrFormat(" mean=%.4f norm=%.4f", Mean(), Norm());
    return s;
  }
  s += " [";
  for (int64_t r = 0; r < rows_; ++r) {
    s += (r == 0 ? "[" : " [");
    for (int64_t c = 0; c < cols_; ++c) {
      if (c > 0) s += ", ";
      s += FormatDouble(at(r, c), 4);
    }
    s += "]";
    if (r + 1 < rows_) s += "\n";
  }
  s += "]";
  return s;
}

bool GemmRunsParallel(int64_t m, int64_t n, int64_t k) {
  const bool parallel = m * n * k >= kGemmSerialFlops;
#ifndef RELGRAPH_NO_METRICS
  // Cached pointers keep the enabled path at two relaxed adds; the
  // disabled path is a single relaxed load.
  if (MetricsEnabled()) {
    static Counter* serial_total =
        MetricsRegistry::Global().GetCounter("gemm_serial_total");
    static Counter* parallel_total =
        MetricsRegistry::Global().GetCounter("gemm_parallel_total");
    static Counter* flops_total =
        MetricsRegistry::Global().GetCounter("gemm_flops_total");
    (parallel ? parallel_total : serial_total)->Add(1);
    flops_total->Add(2 * m * n * k);
  }
#endif
  return parallel;
}

// All four GEMMs dispatch through DispatchGemmRows and delegate the
// chunk bodies to the kern:: microkernels (AVX2 or the portable twins —
// bit-identical either way; see simd_kernels.h for the numeric contract).
// For any fixed output element the accumulation order over the inner
// dimension is fixed by that contract, so every schedule (including fully
// serial) produces identical bits.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.cols() << " vs " << b.rows();
  Tensor out(a.rows(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return out;
  const float* A = a.data();
  const float* B = b.data();
  float* O = out.data();
  DispatchGemmRows(m, n, k, [&](int64_t i0, int64_t i1) {
    kern::GemmRowChunk(A, B, O, i0, i1, k, n);
  });
  return out;
}

PackedMatrix::~PackedMatrix() {
  FloatBufferPool::Global().Release(std::move(data));
}

PackedMatrix PackForMatMul(const Tensor& b) {
  PackedMatrix pm;
  pm.rows = b.rows();
  pm.cols = b.cols();
  const size_t need =
      static_cast<size_t>(kern::PackedSize(b.rows(), b.cols()));
  pm.data = FloatBufferPool::Global().Acquire(need);
  pm.data.resize(need);
  kern::PackB(b.data(), b.rows(), b.cols(), pm.data.data());
  return pm;
}

Tensor MatMulPacked(const Tensor& a, const PackedMatrix& b) {
  RELGRAPH_CHECK(a.cols() == b.rows)
      << "matmul-packed shape mismatch: " << a.cols() << " vs " << b.rows;
  Tensor out(a.rows(), b.cols);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols;
  if (m == 0 || k == 0 || n == 0) return out;
  const float* A = a.data();
  const float* P = b.data.data();
  float* O = out.data();
  DispatchGemmRows(m, n, k, [&](int64_t i0, int64_t i1) {
    kern::GemmPackedRowChunk(A, P, O, i0, i1, k, n);
  });
  return out;
}

Tensor MatMulBT(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.cols() == b.cols())
      << "matmul-BT shape mismatch: " << a.cols() << " vs " << b.cols();
  Tensor out(a.rows(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || k == 0 || n == 0) return out;
  const float* A = a.data();
  const float* B = b.data();
  float* O = out.data();
  DispatchGemmRows(m, n, k, [&](int64_t i0, int64_t i1) {
    kern::GemmBTRowChunk(A, B, O, i0, i1, k, n);
  });
  return out;
}

Tensor MatMulAT(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.rows() == b.rows())
      << "matmul-AT shape mismatch: " << a.rows() << " vs " << b.rows();
  Tensor out(a.cols(), b.cols());
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return out;
  const float* A = a.data();
  const float* B = b.data();
  float* O = out.data();
  DispatchGemmRows(m, n, k, [&](int64_t i0, int64_t i1) {
    kern::GemmATRowChunk(A, B, O, i0, i1, m, k, n);
  });
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.SameShape(b));
  Tensor out = a;
  out.Add(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.SameShape(b));
  Tensor out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    kern::SubOut(po + lo, pa + lo, pb + lo, hi - lo);
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  RELGRAPH_CHECK(a.SameShape(b));
  Tensor out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    kern::MulOut(po + lo, pa + lo, pb + lo, hi - lo);
  });
  return out;
}

Tensor AddRowBroadcast(const Tensor& m, const Tensor& row) {
  RELGRAPH_CHECK(row.rows() == 1 && row.cols() == m.cols());
  Tensor out = m;
  const int64_t cols = m.cols();
  const float* prow = row.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, cols));
  ParallelFor(0, m.rows(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* orow = po + r * cols;
      for (int64_t c = 0; c < cols; ++c) orow[c] += prow[c];
    }
  });
  return out;
}

Tensor SumRows(const Tensor& m) {
  Tensor out(1, m.cols());
  // Parallel over column chunks: each column's accumulation still walks
  // the rows top to bottom, so the result is bit-identical to the serial
  // double loop at any thread count.
  const int64_t rows = m.rows(), cols = m.cols();
  if (rows == 0 || cols == 0) return out;
  const float* pm = m.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, rows));
  ParallelFor(0, cols, grain, [&](int64_t c0, int64_t c1) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* mrow = pm + r * cols;
      for (int64_t c = c0; c < c1; ++c) po[c] += mrow[c];
    }
  });
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  Tensor out(logits.rows(), logits.cols());
  const int64_t cols = logits.cols();
  if (logits.rows() == 0 || cols == 0) return out;
  const float* px = logits.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, cols));
  // exp(x - rowmax) comes from the shared kern polynomial (one exp per
  // element instead of the old two double-precision ones); the denominator
  // folds the exps in column order in double, so rows are bit-identical at
  // any thread count and across the SIMD/portable builds.
  ParallelFor(0, logits.rows(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xrow = px + r * cols;
      float* orow = po + r * cols;
      const float maxv = kern::RowMax(xrow, cols);
      kern::ExpShiftedRow(orow, xrow, maxv, cols);
      double denom = 0.0;
      for (int64_t c = 0; c < cols; ++c) denom += orow[c];
      const float inv = static_cast<float>(1.0 / denom);
      kern::ScaleInPlace(orow, inv, cols);
    }
  });
  return out;
}

}  // namespace relgraph
