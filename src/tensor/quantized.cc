#include "tensor/quantized.h"

#include <cmath>
#include <cstring>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "tensor/simd_kernels.h"

namespace relgraph {

namespace {

constexpr int64_t kQuantRowGrain = 64;

/// First non-finite element of `t`, or ok. The error names the exact
/// coordinate so a poisoned feature column is a one-line diagnosis.
Status CheckAllFinite(const Tensor& t, const char* what) {
  const float* d = t.data();
  const int64_t cols = t.cols() > 0 ? t.cols() : 1;
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(d[i])) {
      return Status::InvalidArgument(StrFormat(
          "%s: non-finite value %f at row %lld col %lld — quantization "
          "requires finite inputs",
          what, static_cast<double>(d[i]),
          static_cast<long long>(i / cols),
          static_cast<long long>(i % cols)));
    }
  }
  return Status::OK();
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
  }
  return "fp32";
}

Result<Precision> ParsePrecision(const std::string& s) {
  if (s == "fp32") return Precision::kFp32;
  if (s == "int8") return Precision::kInt8;
  return Status::InvalidArgument("unknown precision '" + s +
                                 "' (want fp32 | int8)");
}

Result<QuantizedTensor> QuantizedTensor::FromTensor(const Tensor& t) {
  RELGRAPH_RETURN_IF_ERROR(CheckAllFinite(t, "QuantizedTensor::FromTensor"));
  QuantizedTensor q;
  q.rows_ = t.rows();
  q.cols_ = t.cols();
  q.scales_.resize(static_cast<size_t>(t.rows()));
  q.data_.resize(static_cast<size_t>(t.numel()));
  const float* src = t.data();
  const int64_t cols = t.cols();
  float* scales = q.scales_.data();
  int8_t* codes = q.data_.data();
  // Rows quantize independently (disjoint writes, pure reads), so the
  // chunked schedule is bit-identical to serial at any thread count.
  ParallelFor(0, t.rows(), kQuantRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      kern::QuantizeRowRef(src + r * cols, cols, codes + r * cols,
                           scales + r);
    }
  });
  q.accounted_.Reset(q.bytes());
  return q;
}

Tensor QuantizedTensor::Dequantize() const {
  Tensor out(rows_, cols_);
  float* dst = out.data();
  for (int64_t r = 0; r < rows_; ++r) {
    const float s = scales_[static_cast<size_t>(r)];
    const int8_t* row = data_.data() + r * cols_;
    float* orow = dst + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      orow[c] = s * static_cast<float>(row[c]);
    }
  }
  return out;
}

Status QuantizedTensor::AppendRows(const Tensor& block) {
  if (block.cols() != cols_) {
    return Status::InvalidArgument(StrFormat(
        "QuantizedTensor::AppendRows: block has %lld cols, want %lld",
        static_cast<long long>(block.cols()),
        static_cast<long long>(cols_)));
  }
  RELGRAPH_RETURN_IF_ERROR(
      CheckAllFinite(block, "QuantizedTensor::AppendRows"));
  const size_t old_rows = static_cast<size_t>(rows_);
  scales_.resize(old_rows + static_cast<size_t>(block.rows()));
  data_.resize(data_.size() + static_cast<size_t>(block.numel()));
  const float* src = block.data();
  for (int64_t r = 0; r < block.rows(); ++r) {
    kern::QuantizeRowRef(src + r * cols_, cols_,
                         data_.data() + (rows_ + r) * cols_,
                         scales_.data() + old_rows + static_cast<size_t>(r));
  }
  rows_ += block.rows();
  accounted_.Reset(bytes());
  return Status::OK();
}

QuantizedTensor QuantizedTensor::Clone() const {
  QuantizedTensor q;
  q.rows_ = rows_;
  q.cols_ = cols_;
  q.scales_ = scales_;
  q.data_ = data_;
  q.accounted_.Reset(q.bytes());
  return q;
}

Result<PackedInt8Matrix> PackForMatMulInt8(const Tensor& b) {
  RELGRAPH_RETURN_IF_ERROR(CheckAllFinite(b, "PackForMatMulInt8"));
  const int64_t k = b.rows(), n = b.cols();
  RELGRAPH_CHECK(k <= kern::kInt8MaxK)
      << "int8 GEMM inner dimension " << k << " exceeds the exact-int32 "
      << "accumulation bound " << kern::kInt8MaxK;
  PackedInt8Matrix pm;
  pm.rows = k;
  pm.cols = n;
  pm.scales.resize(static_cast<size_t>(n));
  // Per-column symmetric quantization: each output feature j dequantizes
  // as scales[j] * q — the transpose of the activation-side per-row
  // contract, so each gathered column goes through QuantizeRowRef itself.
  std::vector<int8_t> codes(static_cast<size_t>(k * n));
  std::vector<float> col(static_cast<size_t>(k));
  std::vector<int8_t> qcol(static_cast<size_t>(k));
  const float* src = b.data();
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) col.data()[p] = src[p * n + j];
    kern::QuantizeRowRef(col.data(), k, qcol.data(), pm.scales.data() + j);
    for (int64_t p = 0; p < k; ++p) codes.data()[p * n + j] = qcol.data()[p];
  }
  pm.packed.resize(static_cast<size_t>(kern::PackedSizeInt8(k, n)));
  kern::PackBInt8(codes.data(), k, n, pm.packed.data());
  pm.accounted.Reset(
      static_cast<int64_t>(pm.packed.size() * sizeof(int16_t) +
                           pm.scales.size() * sizeof(float)));
  return pm;
}

Tensor MatMulInt8(const Tensor& a, const PackedInt8Matrix& b) {
  RELGRAPH_CHECK(a.cols() == b.rows)
      << "matmul-int8 shape mismatch: " << a.cols() << " vs " << b.rows;
  Tensor out(a.rows(), b.cols);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols;
  if (m == 0 || k == 0 || n == 0) return out;
  // Quantize activations per row and widen to the padded int16 layout the
  // madd kernel consumes. Rows are independent, so the parallel schedule
  // cannot change a byte.
  const int64_t k_pad = (k + 1) & ~int64_t{1};
  std::vector<int16_t> a16(static_cast<size_t>(m * k_pad), 0);
  std::vector<float> a_scales(static_cast<size_t>(m));
  const float* A = a.data();
  ParallelFor(0, m, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
    std::vector<int8_t> qrow(static_cast<size_t>(k));
    for (int64_t i = lo; i < hi; ++i) {
      kern::QuantizeRowRef(A + i * k, k, qrow.data(),
                           a_scales.data() + i);
      int16_t* dst = a16.data() + i * k_pad;
      for (int64_t p = 0; p < k; ++p) {
        dst[p] = static_cast<int16_t>(qrow[static_cast<size_t>(p)]);
      }
    }
  });
  float* O = out.data();
  DispatchGemmRows(m, n, k, [&](int64_t i0, int64_t i1) {
    kern::Int8GemmPackedRowChunk(a16.data(), a_scales.data(),
                                 b.packed.data(), b.scales.data(), O, i0,
                                 i1, k, n);
  });
  return out;
}

EncodedEmbedding EncodedEmbedding::Encode(const float* src, int64_t n,
                                          Precision p) {
  EncodedEmbedding e;
  e.precision_ = p;
  e.dim_ = n;
  switch (p) {
    case Precision::kFp32: {
      e.payload_.resize(static_cast<size_t>(n) * sizeof(float));
      std::memcpy(e.payload_.data(), src, e.payload_.size());
      // fp32 is not a low-precision payload; not counted.
      break;
    }
    case Precision::kInt8: {
      e.payload_.resize(static_cast<size_t>(n));
      kern::QuantizeRowRef(src, n,
                           reinterpret_cast<int8_t*>(e.payload_.data()),
                           &e.scale_);
      e.accounted_.Reset(e.bytes());
      break;
    }
  }
  return e;
}

void EncodedEmbedding::Decode(float* dst) const {
  switch (precision_) {
    case Precision::kFp32: {
      std::memcpy(dst, payload_.data(),
                  static_cast<size_t>(dim_) * sizeof(float));
      break;
    }
    case Precision::kInt8: {
      const int8_t* q = reinterpret_cast<const int8_t*>(payload_.data());
      for (int64_t i = 0; i < dim_; ++i) {
        dst[i] = scale_ * static_cast<float>(q[i]);
      }
      break;
    }
  }
}

}  // namespace relgraph
