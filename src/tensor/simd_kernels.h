#ifndef RELGRAPH_TENSOR_SIMD_KERNELS_H_
#define RELGRAPH_TENSOR_SIMD_KERNELS_H_

#include <cstdint>

namespace relgraph {
namespace kern {

/// Low-level tensor microkernels with two interchangeable builds selected
/// by the `RELGRAPH_SIMD` CMake option: AVX2 intrinsics, or a portable
/// scalar twin.
///
/// **The two builds are bit-identical.** Every kernel's per-output
/// operation sequence is fixed by contract, not by implementation:
///
///  - GEMM-family outputs accumulate `round(a*b)` then add, ascending over
///    the inner dimension — the textbook order — which no register tiling,
///    column blocking, or B-packing can change (lanes are independent
///    output elements).
///  - Dot-product-family outputs (`MatMulBT`) use `LaneDot`: eight float
///    partial sums (lane l takes elements 8t+l), combined in the fixed
///    tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then the tail folded in
///    ascending order. The scalar build implements the same lanes in plain
///    code.
///  - `ExpRef` is a shared Cephes-style polynomial; the AVX2 path applies
///    the identical operation sequence per lane.
///
/// FMA contraction is deliberately OFF (the SIMD translation unit builds
/// with `-mavx2 -ffp-contract=off`, no `-mfma`): a fused multiply-add
/// rounds once where the contract rounds twice, which would fork the
/// numeric results between the SIMD and portable builds and invalidate
/// the committed golden files in one of them. AVX2 mul+add still clears
/// the kernel perf targets by a wide margin.
///
/// All kernels are chunk-local (no internal threading): callers hand them
/// disjoint output ranges from `ParallelFor`, so thread-count bit-equality
/// is inherited from the PR-2 runtime contract.

/// True when this build compiled the AVX2 path.
bool SimdEnabled();

/// "avx2" or "scalar" (for bench records and logs).
const char* SimdName();

// ----------------------------------------------------------- elementwise

/// dst[i] += src[i].
void AddInto(float* dst, const float* src, int64_t n);

/// o[i] = a[i] - b[i].
void SubOut(float* o, const float* a, const float* b, int64_t n);

/// o[i] = a[i] * b[i].
void MulOut(float* o, const float* a, const float* b, int64_t n);

/// dst[i] *= s.
void ScaleInPlace(float* dst, float s, int64_t n);

/// dst[i] += s * src[i] (product rounded, then added).
void AxpyInto(float* dst, const float* src, float s, int64_t n);

/// o[i] = max(0, x[i]); NaN maps to 0 like std::max(0.0f, x).
void ReluOut(float* o, const float* x, int64_t n);

/// dst[i] += (x[i] > 0 ? g[i] : 0.0f).
void ReluGradAccum(float* dst, const float* g, const float* x, int64_t n);

// ---------------------------------------------------- GEMM row-chunk kernels

/// Output rows [i0, i1) of A(m×k) @ B(k×n) into O (row-major, pre-zeroed
/// rows are fully owned by this call and overwritten).
void GemmRowChunk(const float* A, const float* B, float* O, int64_t i0,
                  int64_t i1, int64_t k, int64_t n);

/// Same contract as GemmRowChunk, reading B from the PackB panel layout.
/// Bit-identical to the unpacked kernel (packing only relocates bytes).
void GemmPackedRowChunk(const float* A, const float* packed_b, float* O,
                        int64_t i0, int64_t i1, int64_t k, int64_t n);

/// Output rows [i0, i1) of A(m×k) @ B(n×k)^T into O(m×n);
/// O[i][j] = LaneDot(A row i, B row j, k).
void GemmBTRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t k, int64_t n);

/// Output rows [i0, i1) of A(k×m)^T @ B(k×n) into O(m×n). O rows in the
/// chunk must be pre-zeroed; accumulation sweeps p ascending (p outermost,
/// streaming one row of A and B per pass).
void GemmATRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t m, int64_t k, int64_t n);

// ------------------------------------------------------------ B packing

/// Width of one packed column panel.
constexpr int64_t kPanelWidth = 16;

/// Floats needed to pack a k×n matrix: k * n rounded up to whole panels.
int64_t PackedSize(int64_t k, int64_t n);

/// Packs row-major B(k×n) into column panels of kPanelWidth: panel jp
/// stores rows p=0..k-1 of columns [jp*16, jp*16+16) contiguously,
/// zero-padding the last panel. Output must hold PackedSize(k, n) floats.
void PackB(const float* B, int64_t k, int64_t n, float* packed);

// ------------------------------------------------- low-precision kernels
//
// Quantized storage paths for the million-node regime. Same
// bit-identity discipline as the fp32 kernels:
//
//  - int8 GEMM accumulates in **exact int32 arithmetic** (|q| <= 127, so
//    k * 127^2 < 2^31 for k <= kInt8MaxK), making the accumulation order
//    irrelevant — the AVX2 madd path and the scalar twin agree trivially.
//    The dequant step is contractual: O[i][j] = (sa[i]*sb[j]) rounded
//    once, then multiplied by float(acc) (int32→float is exact RNE in
//    both builds).
//  - QuantizeRowRef is shared scalar code, compiled identically in both
//    builds; it is the one quantization rule (per row for activations and
//    embeddings, per gathered column for packed weights).

/// Largest inner dimension for which the int8 accumulator cannot overflow
/// int32 (k * 127 * 127 < 2^31).
constexpr int64_t kInt8MaxK = (int64_t{1} << 31) / (127 * 127) - 1;

/// Symmetric per-row quantization of one row: scale = max|x| / 127,
/// q[i] = clamp(lrintf(x[i] * (127 / max|x|)), -127, 127) (round to
/// nearest, ties to even — the default rounding mode). An all-zero row gets
/// scale = 0 and all-zero codes (dequantizes to exact zeros). Inputs must
/// be finite — callers validate; see QuantizedTensor::FromTensor.
void QuantizeRowRef(const float* x, int64_t n, int8_t* q, float* scale);

/// int16 units needed to pack an int8 k×n matrix for Int8GemmPackedRowChunk:
/// whole 16-column panels over k rounded up to an even count.
int64_t PackedSizeInt8(int64_t k, int64_t n);

/// Packs int8 B(k×n) into pre-widened int16 panels of kPanelWidth columns.
/// Panel jp covers columns [jp*16, jp*16+16); within a panel, inner-dim
/// pairs kp cover rows {2kp, 2kp+1} (the last pair zero-padded when k is
/// odd), stored column-interleaved: packed[jp*16*k_pad + kp*32 + 2*j + e]
/// = B[2kp+e][jp*16+j]. This is exactly the operand order the AVX2
/// madd_epi16 path consumes; the scalar twin reads the same layout.
void PackBInt8(const int8_t* B, int64_t k, int64_t n, int16_t* packed);

/// Output rows [i0, i1) of the int8 GEMM with fused dequantization:
/// O[i][j] = (a_scales[i] * b_scales[j]) * float(sum_p qa[i][p]*qb[p][j]).
/// A16 is the row-major activation matrix pre-widened to int16 with rows
/// zero-padded to k_pad = k rounded up to even; packed_b is the
/// PackBInt8 layout. Integer accumulation is exact, so the result is
/// bit-identical across builds and thread counts by construction.
void Int8GemmPackedRowChunk(const int16_t* A16, const float* a_scales,
                            const int16_t* packed_b, const float* b_scales,
                            float* O, int64_t i0, int64_t i1, int64_t k,
                            int64_t n);

// ----------------------------------------------------- dot-product contract

/// The MatMulBT per-output contract: eight float lane sums over k,
/// fixed-tree combine, ascending tail. Exposed so tests can pin the SIMD
/// build against a plain-C++ reference bit for bit.
float LaneDot(const float* a, const float* b, int64_t k);

// ------------------------------------------------------------- softmax rows

/// Shared exp polynomial (Cephes-style, float, ~2 ulp); the AVX2 lane
/// version applies the identical operation sequence.
float ExpRef(float x);

/// out[i] = ExpRef(x[i] - shift).
void ExpShiftedRow(float* out, const float* x, float shift, int64_t n);

/// Max entry of x (n >= 1); ties and -0/+0 resolve identically in both
/// builds; all-finite inputs are order-independent.
float RowMax(const float* x, int64_t n);

}  // namespace kern
}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_SIMD_KERNELS_H_
