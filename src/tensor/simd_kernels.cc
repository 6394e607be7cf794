#include "tensor/simd_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(RELGRAPH_SIMD_AVX2) && defined(__AVX2__)
#define RELGRAPH_KERN_AVX2 1
#include <immintrin.h>
#endif

namespace relgraph {
namespace kern {

namespace {

// ------------------------------------------------------------------
// Shared numeric pieces. Everything in this block is compiled the same
// way in both builds (the SIMD TU carries -ffp-contract=off, and plain
// -mavx2 does not license FMA contraction), so these are the single
// source of truth for the bit contracts.

// Cephes-style expf constants; the AVX2 lanes apply the identical
// operation sequence.
constexpr float kExpMaxX = 88.3762626647950f;
constexpr float kExpMinX = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

inline float Pow2i(int32_t n) {
  return std::bit_cast<float>((n + 127) << 23);
}

}  // namespace

float ExpRef(float x) {
  // Clamp with min/max-instruction semantics ((x < hi) ? x : hi), which
  // the vector _mm256_min_ps/_mm256_max_ps pair reproduces exactly,
  // including for NaN input (NaN compares false, so it clamps to hi).
  float xx = (x < kExpMaxX) ? x : kExpMaxX;
  xx = (xx > kExpMinX) ? xx : kExpMinX;
  // n = round-to-nearest(x / ln2) via floor(x*log2e + 0.5), then
  // Cody-Waite two-stage reduction r = x - n*ln2 in [-ln2/2, ln2/2].
  const float fx = std::floor(xx * kLog2e + 0.5f);
  xx = xx - fx * kLn2Hi;
  xx = xx - fx * kLn2Lo;
  // Degree-5 polynomial for e^r - r - 1 over the reduced range.
  float z = kExpC0;
  z = z * xx + kExpC1;
  z = z * xx + kExpC2;
  z = z * xx + kExpC3;
  z = z * xx + kExpC4;
  z = z * xx + kExpC5;
  z = z * xx;
  z = z * xx;
  z = z + xx;
  z = z + 1.0f;
  return z * Pow2i(static_cast<int32_t>(fx));
}

float RowMax(const float* x, int64_t n) {
  // Max has no rounding, so a plain fold is order-independent for finite
  // inputs; sharing one scalar loop across both builds makes ties and
  // NaN propagation trivially identical too.
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = (x[i] > m) ? x[i] : m;
  return m;
}

int64_t PackedSize(int64_t k, int64_t n) {
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  return panels * kPanelWidth * k;
}

void PackB(const float* B, int64_t k, int64_t n, float* packed) {
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int64_t jp = 0; jp < panels; ++jp) {
    const int64_t j0 = jp * kPanelWidth;
    const int64_t w = std::min(kPanelWidth, n - j0);
    float* panel = packed + jp * kPanelWidth * k;
    for (int64_t p = 0; p < k; ++p) {
      float* dst = panel + p * kPanelWidth;
      std::memcpy(dst, B + p * n + j0, static_cast<size_t>(w) * sizeof(float));
      for (int64_t c = w; c < kPanelWidth; ++c) dst[c] = 0.0f;
    }
  }
}

// ------------------------------------------------------------------
// Shared low-precision pieces. Quantization is plain scalar code
// compiled identically in both builds, so the two builds cannot disagree
// about a single stored byte.

void QuantizeRowRef(const float* x, int64_t n, int8_t* q, float* scale) {
  float max_abs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > max_abs) max_abs = a;
  }
  if (max_abs == 0.0f) {
    *scale = 0.0f;
    std::memset(q, 0, static_cast<size_t>(n));
    return;
  }
  const float inv = 127.0f / max_abs;
  for (int64_t i = 0; i < n; ++i) {
    long v = std::lrintf(x[i] * inv);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<int8_t>(v);
  }
  *scale = max_abs / 127.0f;
}

namespace {

inline int64_t PadEven(int64_t k) { return (k + 1) & ~int64_t{1}; }

}  // namespace

int64_t PackedSizeInt8(int64_t k, int64_t n) {
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  return panels * kPanelWidth * PadEven(k);
}

void PackBInt8(const int8_t* B, int64_t k, int64_t n, int16_t* packed) {
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int64_t k_pad = PadEven(k);
  for (int64_t jp = 0; jp < panels; ++jp) {
    const int64_t j0 = jp * kPanelWidth;
    const int64_t w = std::min(kPanelWidth, n - j0);
    int16_t* panel = packed + jp * kPanelWidth * k_pad;
    for (int64_t kp = 0; kp < k_pad / 2; ++kp) {
      int16_t* dst = panel + kp * 2 * kPanelWidth;
      for (int64_t j = 0; j < kPanelWidth; ++j) {
        for (int64_t e = 0; e < 2; ++e) {
          const int64_t p = 2 * kp + e;
          dst[2 * j + e] = (j < w && p < k)
                               ? static_cast<int16_t>(B[p * n + j0 + j])
                               : int16_t{0};
        }
      }
    }
  }
}

#if defined(RELGRAPH_KERN_AVX2)

// ===================================================== AVX2 build

bool SimdEnabled() { return true; }
const char* SimdName() { return "avx2"; }

namespace {

// Fixed-tree horizontal sum; the lane-combine order is the LaneDot
// contract: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 s = _mm_add_ps(lo, hi);
  const __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(t, _mm_shuffle_ps(t, t, 0x1)));
}

inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpMaxX));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpMinX));
  const __m256 fx = _mm256_floor_ps(_mm256_add_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(0.5f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Hi)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Lo)));
  __m256 z = _mm256_set1_ps(kExpC0);
  z = _mm256_add_ps(_mm256_mul_ps(z, x), _mm256_set1_ps(kExpC1));
  z = _mm256_add_ps(_mm256_mul_ps(z, x), _mm256_set1_ps(kExpC2));
  z = _mm256_add_ps(_mm256_mul_ps(z, x), _mm256_set1_ps(kExpC3));
  z = _mm256_add_ps(_mm256_mul_ps(z, x), _mm256_set1_ps(kExpC4));
  z = _mm256_add_ps(_mm256_mul_ps(z, x), _mm256_set1_ps(kExpC5));
  z = _mm256_mul_ps(z, x);
  z = _mm256_mul_ps(z, x);
  z = _mm256_add_ps(z, x);
  z = _mm256_add_ps(z, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256 pow2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  return _mm256_mul_ps(z, pow2);
}

// One register tile of R output rows against a 16-column stripe of B
// starting at column j, sweeping the full inner dimension. `load_b`
// abstracts the B layout (row-major stride n vs packed panel stride 16).
template <int R, typename LoadB>
inline void GemmTile16(const float* A, float* O, int64_t i, int64_t j,
                       int64_t k, int64_t n, LoadB load_b) {
  const float* a[R];
  for (int r = 0; r < R; ++r) a[r] = A + (i + r) * k;
  __m256 acc0[R], acc1[R];
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = load_b(p);
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_set1_ps(a[r][p]);
      acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, b0));
      acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, b1));
    }
  }
  for (int r = 0; r < R; ++r) {
    float* orow = O + (i + r) * n + j;
    _mm256_storeu_ps(orow, acc0[r]);
    _mm256_storeu_ps(orow + 8, acc1[r]);
  }
}

// Tail columns [j, n) (fewer than 16) for R rows, scalar accumulators.
template <int R>
inline void GemmTailCols(const float* A, const float* B, float* O, int64_t i,
                         int64_t j0, int64_t k, int64_t n) {
  for (int64_t j = j0; j < n; ++j) {
    float acc[R] = {};
    for (int64_t p = 0; p < k; ++p) {
      const float bv = B[p * n + j];
      for (int r = 0; r < R; ++r) acc[r] += A[(i + r) * k + p] * bv;
    }
    for (int r = 0; r < R; ++r) O[(i + r) * n + j] = acc[r];
  }
}

template <int R>
inline void GemmRows(const float* A, const float* B, float* O, int64_t i,
                     int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const float* bbase = B + j;
    GemmTile16<R>(A, O, i, j, k, n,
                  [bbase, n](int64_t p) { return bbase + p * n; });
  }
  if (j < n) GemmTailCols<R>(A, B, O, i, j, k, n);
}

template <int R>
inline void GemmPackedRows(const float* A, const float* packed, float* O,
                           int64_t i, int64_t k, int64_t n) {
  const int64_t full_panels = n / kPanelWidth;
  for (int64_t jp = 0; jp < full_panels; ++jp) {
    const float* panel = packed + jp * kPanelWidth * k;
    GemmTile16<R>(A, O, i, jp * kPanelWidth, k, n,
                  [panel](int64_t p) { return panel + p * kPanelWidth; });
  }
  const int64_t j0 = full_panels * kPanelWidth;
  if (j0 < n) {
    // The last panel is zero-padded, so the 16-wide tile computes valid
    // values for the live columns; spill through a stack buffer instead
    // of storing past the row end.
    const float* panel = packed + full_panels * kPanelWidth * k;
    const int64_t w = n - j0;
    const float* a[R];
    for (int r = 0; r < R; ++r) a[r] = A + (i + r) * k;
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (int64_t p = 0; p < k; ++p) {
      const float* bp = panel + p * kPanelWidth;
      const __m256 b0 = _mm256_loadu_ps(bp);
      const __m256 b1 = _mm256_loadu_ps(bp + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 va = _mm256_set1_ps(a[r][p]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, b1));
      }
    }
    for (int r = 0; r < R; ++r) {
      alignas(32) float tmp[kPanelWidth];
      _mm256_storeu_ps(tmp, acc0[r]);
      _mm256_storeu_ps(tmp + 8, acc1[r]);
      std::memcpy(O + (i + r) * n + j0, tmp,
                  static_cast<size_t>(w) * sizeof(float));
    }
  }
}

}  // namespace

void AddInto(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void SubOut(float* o, const float* a, const float* b, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulOut(float* o, const float* a, const float* b, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleInPlace(float* dst, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vs));
  }
  for (; i < n; ++i) dst[i] *= s;
}

void AxpyInto(float* dst, const float* src, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(vs, _mm256_loadu_ps(src + i))));
  }
  for (; i < n; ++i) dst[i] += s * src[i];
}

void ReluOut(float* o, const float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(x, 0) returns the second operand for NaN and for ±0 ties,
    // exactly like std::max(0.0f, x).
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = std::max(0.0f, x[i]);
}

void ReluGradAccum(float* dst, const float* g, const float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero,
                                      _CMP_GT_OQ);
    const __m256 add = _mm256_and_ps(mask, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), add));
  }
  for (; i < n; ++i) dst[i] += (x[i] > 0.0f) ? g[i] : 0.0f;
}

void GemmRowChunk(const float* A, const float* B, float* O, int64_t i0,
                  int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) GemmRows<4>(A, B, O, i, k, n);
  switch (i1 - i) {
    case 3: GemmRows<3>(A, B, O, i, k, n); break;
    case 2: GemmRows<2>(A, B, O, i, k, n); break;
    case 1: GemmRows<1>(A, B, O, i, k, n); break;
    default: break;
  }
}

void GemmPackedRowChunk(const float* A, const float* packed_b, float* O,
                        int64_t i0, int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) GemmPackedRows<4>(A, packed_b, O, i, k, n);
  switch (i1 - i) {
    case 3: GemmPackedRows<3>(A, packed_b, O, i, k, n); break;
    case 2: GemmPackedRows<2>(A, packed_b, O, i, k, n); break;
    case 1: GemmPackedRows<1>(A, packed_b, O, i, k, n); break;
    default: break;
  }
}

float LaneDot(const float* a, const float* b, int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p)));
  }
  float r = HSum(acc);
  for (; p < k; ++p) r += a[p] * b[p];
  return r;
}

void GemmBTRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * n;
    int64_t j = 0;
    // Four B rows per sweep so each loaded a-vector feeds four dot
    // products; per-output bits still follow the LaneDot contract.
    for (; j + 4 <= n; j += 4) {
      const float* b0 = B + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 va = _mm256_loadu_ps(arow + p);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b0 + p)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b1 + p)));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b2 + p)));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(va, _mm256_loadu_ps(b3 + p)));
      }
      float r0 = HSum(acc0), r1 = HSum(acc1);
      float r2 = HSum(acc2), r3 = HSum(acc3);
      for (; p < k; ++p) {
        const float av = arow[p];
        r0 += av * b0[p];
        r1 += av * b1[p];
        r2 += av * b2[p];
        r3 += av * b3[p];
      }
      orow[j] = r0;
      orow[j + 1] = r1;
      orow[j + 2] = r2;
      orow[j + 3] = r3;
    }
    for (; j < n; ++j) orow[j] = LaneDot(arow, B + j * k, k);
  }
}

void GemmATRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t m, int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = A + p * m;
    const float* brow = B + p * n;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const __m256 v0 = _mm256_set1_ps(arow[i]);
      const __m256 v1 = _mm256_set1_ps(arow[i + 1]);
      const __m256 v2 = _mm256_set1_ps(arow[i + 2]);
      const __m256 v3 = _mm256_set1_ps(arow[i + 3]);
      float* o0 = O + i * n;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + j);
        _mm256_storeu_ps(o0 + j, _mm256_add_ps(_mm256_loadu_ps(o0 + j),
                                               _mm256_mul_ps(v0, vb)));
        _mm256_storeu_ps(o1 + j, _mm256_add_ps(_mm256_loadu_ps(o1 + j),
                                               _mm256_mul_ps(v1, vb)));
        _mm256_storeu_ps(o2 + j, _mm256_add_ps(_mm256_loadu_ps(o2 + j),
                                               _mm256_mul_ps(v2, vb)));
        _mm256_storeu_ps(o3 + j, _mm256_add_ps(_mm256_loadu_ps(o3 + j),
                                               _mm256_mul_ps(v3, vb)));
      }
      for (; j < n; ++j) {
        const float bv = brow[j];
        o0[j] += arow[i] * bv;
        o1[j] += arow[i + 1] * bv;
        o2[j] += arow[i + 2] * bv;
        o3[j] += arow[i + 3] * bv;
      }
    }
    for (; i < i1; ++i) {
      const float av = arow[i];
      const __m256 va = _mm256_set1_ps(av);
      float* orow = O + i * n;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j),
                                                 _mm256_mul_ps(va,
                                                     _mm256_loadu_ps(brow + j))));
      }
      for (; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

namespace {

// R output rows of the int8 GEMM. Accumulation is exact int32 (madd of
// |q| <= 127 int16 pairs cannot overflow int16*int16 products, and the
// running sum stays below 2^31 for k <= kInt8MaxK), so lane order is
// numerically irrelevant; only the dequant multiply rounds, and it
// follows the contract (sa*sb rounded once, then times float(acc)).
template <int R>
inline void Int8Rows(const int16_t* A16, const float* a_scales,
                     const int16_t* packed, const float* b_scales, float* O,
                     int64_t i, int64_t k, int64_t n) {
  const int64_t k_pad = (k + 1) & ~int64_t{1};
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int64_t kp_count = k_pad / 2;
  const int16_t* a[R];
  for (int r = 0; r < R; ++r) a[r] = A16 + (i + r) * k_pad;
  for (int64_t jp = 0; jp < panels; ++jp) {
    const int64_t j0 = jp * kPanelWidth;
    const int64_t w = std::min(kPanelWidth, n - j0);
    const int16_t* panel = packed + jp * kPanelWidth * k_pad;
    __m256i acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_setzero_si256();
      acc1[r] = _mm256_setzero_si256();
    }
    for (int64_t kp = 0; kp < kp_count; ++kp) {
      const int16_t* brow = panel + kp * 2 * kPanelWidth;
      const __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
      const __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));
      for (int r = 0; r < R; ++r) {
        // The two adjacent int16 codes ARE the madd operand pair in
        // little-endian memory — broadcast them with one vpbroadcastd
        // load instead of assembling the pair in scalar registers.
        int32_t pair;
        std::memcpy(&pair, a[r] + 2 * kp, sizeof(pair));
        const __m256i va = _mm256_set1_epi32(pair);
        acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(va, b0));
        acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(va, b1));
      }
    }
    if (w == kPanelWidth) {
      const __m256 sb0 = _mm256_loadu_ps(b_scales + j0);
      const __m256 sb1 = _mm256_loadu_ps(b_scales + j0 + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 sa = _mm256_set1_ps(a_scales[i + r]);
        float* orow = O + (i + r) * n + j0;
        _mm256_storeu_ps(orow, _mm256_mul_ps(_mm256_mul_ps(sa, sb0),
                                             _mm256_cvtepi32_ps(acc0[r])));
        _mm256_storeu_ps(orow + 8,
                         _mm256_mul_ps(_mm256_mul_ps(sa, sb1),
                                       _mm256_cvtepi32_ps(acc1[r])));
      }
    } else {
      // Ragged last panel: spill the exact int32 sums and dequantize the
      // live columns with the identical scalar expression.
      alignas(32) int32_t tmp[kPanelWidth];
      for (int r = 0; r < R; ++r) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), acc0[r]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + 8), acc1[r]);
        const float sa = a_scales[i + r];
        float* orow = O + (i + r) * n + j0;
        for (int64_t c = 0; c < w; ++c) {
          orow[c] = (sa * b_scales[j0 + c]) * static_cast<float>(tmp[c]);
        }
      }
    }
  }
}

}  // namespace

void Int8GemmPackedRowChunk(const int16_t* A16, const float* a_scales,
                            const int16_t* packed_b, const float* b_scales,
                            float* O, int64_t i0, int64_t i1, int64_t k,
                            int64_t n) {
  // Six-row main tile: 12 ymm accumulators + 2 B panels + 1 broadcast
  // stays within the 16-register budget while amortizing each streamed B
  // panel over 6 output rows (B traffic dominates at serving shapes).
  int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    Int8Rows<6>(A16, a_scales, packed_b, b_scales, O, i, k, n);
  }
  switch (i1 - i) {
    case 5: Int8Rows<5>(A16, a_scales, packed_b, b_scales, O, i, k, n); break;
    case 4: Int8Rows<4>(A16, a_scales, packed_b, b_scales, O, i, k, n); break;
    case 3: Int8Rows<3>(A16, a_scales, packed_b, b_scales, O, i, k, n); break;
    case 2: Int8Rows<2>(A16, a_scales, packed_b, b_scales, O, i, k, n); break;
    case 1: Int8Rows<1>(A16, a_scales, packed_b, b_scales, O, i, k, n); break;
    default: break;
  }
}

void ExpShiftedRow(float* out, const float* x, float shift, int64_t n) {
  const __m256 vshift = _mm256_set1_ps(shift);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, Exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), vshift)));
  }
  for (; i < n; ++i) out[i] = ExpRef(x[i] - shift);
}

#else  // !RELGRAPH_KERN_AVX2

// ===================================================== portable build
//
// Plain C++ twins of every kernel above, bit-identical by construction:
// elementwise ops share the per-element formula, GEMM outputs share the
// ascending-p mul-then-add order (register tiling never reorders a fixed
// output element's updates), and LaneDot spells out the 8-lane structure
// and combine tree in scalar code.

bool SimdEnabled() { return false; }
const char* SimdName() { return "scalar"; }

namespace {

// Output-column tile: four accumulating output sub-rows plus the
// streamed b sub-row stay L1-resident (matches the PR-2 kernel).
constexpr int64_t kBlockJ = 1024;

}  // namespace

void AddInto(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SubOut(float* o, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulOut(float* o, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleInPlace(float* dst, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= s;
}

void AxpyInto(float* dst, const float* src, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

void ReluOut(float* o, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::max(0.0f, x[i]);
}

void ReluGradAccum(float* dst, const float* g, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += (x[i] > 0.0f) ? g[i] : 0.0f;
}

void GemmRowChunk(const float* A, const float* B, float* O, int64_t i0,
                  int64_t i1, int64_t k, int64_t n) {
  // Register-block four output rows per sweep of the inner dimension:
  // each streamed row of b feeds four accumulating output rows. For any
  // fixed output element the updates arrive in p order 0..k-1.
  for (int64_t jb = 0; jb < n; jb += kBlockJ) {
    const int64_t je = std::min(n, jb + kBlockJ);
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* a0 = A + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* o0 = O + i * n;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      for (int64_t p = 0; p < k; ++p) {
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        const float* brow = B + p * n;
        for (int64_t j = jb; j < je; ++j) {
          const float bv = brow[j];
          o0[j] += v0 * bv;
          o1[j] += v1 * bv;
          o2[j] += v2 * bv;
          o3[j] += v3 * bv;
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = A + i * k;
      float* orow = O + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* brow = B + p * n;
        for (int64_t j = jb; j < je; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

void GemmPackedRowChunk(const float* A, const float* packed_b, float* O,
                        int64_t i0, int64_t i1, int64_t k, int64_t n) {
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int64_t jp = 0; jp < panels; ++jp) {
    const int64_t j0 = jp * kPanelWidth;
    const int64_t w = std::min(kPanelWidth, n - j0);
    const float* panel = packed_b + jp * kPanelWidth * k;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* a0 = A + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* o0 = O + i * n + j0;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      for (int64_t p = 0; p < k; ++p) {
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        const float* prow = panel + p * kPanelWidth;
        for (int64_t c = 0; c < w; ++c) {
          const float bv = prow[c];
          o0[c] += v0 * bv;
          o1[c] += v1 * bv;
          o2[c] += v2 * bv;
          o3[c] += v3 * bv;
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = A + i * k;
      float* orow = O + i * n + j0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* prow = panel + p * kPanelWidth;
        for (int64_t c = 0; c < w; ++c) orow[c] += av * prow[c];
      }
    }
  }
}

float LaneDot(const float* a, const float* b, int64_t k) {
  // The scalar spelling of the SIMD contract: eight float lanes over the
  // body, fixed-tree combine, ascending tail. Eight independent
  // accumulators also break the dependency chain that made the old
  // double-accumulator MatMulBT ~2x slower than MatMul.
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    for (int l = 0; l < 8; ++l) lane[l] += a[p + l] * b[p + l];
  }
  const float s0 = lane[0] + lane[4];
  const float s1 = lane[1] + lane[5];
  const float s2 = lane[2] + lane[6];
  const float s3 = lane[3] + lane[7];
  float r = (s0 + s2) + (s1 + s3);
  for (; p < k; ++p) r += a[p] * b[p];
  return r;
}

void GemmBTRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = LaneDot(arow, B + j * k, k);
  }
}

void GemmATRowChunk(const float* A, const float* B, float* O, int64_t i0,
                    int64_t i1, int64_t m, int64_t k, int64_t n) {
  // p stays outermost so each pass streams one row of a and b; the
  // per-element accumulation order (p ascending) matches the AVX2 build.
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = A + p * m;
    const float* brow = B + p * n;
    for (int64_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      float* orow = O + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void Int8GemmPackedRowChunk(const int16_t* A16, const float* a_scales,
                            const int16_t* packed_b, const float* b_scales,
                            float* O, int64_t i0, int64_t i1, int64_t k,
                            int64_t n) {
  // Integer accumulation is exact, so this plain loop matches the AVX2
  // madd path bit for bit regardless of order; the packed layout is read
  // identically (pairs of inner-dim rows, column-interleaved).
  const int64_t k_pad = (k + 1) & ~int64_t{1};
  const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int64_t kp_count = k_pad / 2;
  for (int64_t i = i0; i < i1; ++i) {
    const int16_t* arow = A16 + i * k_pad;
    const float sa = a_scales[i];
    float* orow = O + i * n;
    for (int64_t jp = 0; jp < panels; ++jp) {
      const int64_t j0 = jp * kPanelWidth;
      const int64_t w = std::min(kPanelWidth, n - j0);
      const int16_t* panel = packed_b + jp * kPanelWidth * k_pad;
      int32_t acc[kPanelWidth] = {};
      for (int64_t kp = 0; kp < kp_count; ++kp) {
        const int32_t a0 = arow[2 * kp];
        const int32_t a1 = arow[2 * kp + 1];
        const int16_t* brow = panel + kp * 2 * kPanelWidth;
        for (int64_t j = 0; j < kPanelWidth; ++j) {
          acc[j] += a0 * brow[2 * j] + a1 * brow[2 * j + 1];
        }
      }
      for (int64_t c = 0; c < w; ++c) {
        orow[j0 + c] = (sa * b_scales[j0 + c]) * static_cast<float>(acc[c]);
      }
    }
  }
}

void ExpShiftedRow(float* out, const float* x, float shift, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = ExpRef(x[i] - shift);
}

#endif  // RELGRAPH_KERN_AVX2

}  // namespace kern
}  // namespace relgraph
