// GEMM kernel microbenchmark.
//
// Measures the three dense kernels behind HeteroSageModel::Forward and its
// backward pass (MatMul, MatMulBT, MatMulAT) across sizes and thread
// counts, plus the pre-threadpool naive serial kernel as a baseline, and
// writes the results to BENCH_gemm.json for cross-PR perf tracking.
//
// Thread counts are swept in-process via
// ThreadPool::SetNumThreadsForTesting, so one run records the full scaling
// curve on whatever hardware it lands on. Determinism means the *results*
// of every configuration are bit-identical; only the wall time moves.
//
// Usage: bench_gemm_kernels [output.json]   (default BENCH_gemm.json)

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <cmath>

#include "bench_util.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/timer.h"
#include "tensor/nn.h"
#include "tensor/quantized.h"
#include "tensor/simd_kernels.h"
#include "tensor/tensor.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal(0, 1));
  }
  return t;
}

/// The seed-repo MatMul kernel (single-threaded, with the per-step
/// zero-skip branch), kept here as the recorded perf baseline.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = out.data() + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

/// Best-of-N wall time (ms) for one kernel invocation; runs until at
/// least `min_reps` reps and 300 ms of total measurement.
template <typename Fn>
double BestMs(const Fn& fn, int min_reps = 3) {
  double best = 1e30;
  double total = 0.0;
  int reps = 0;
  while (reps < min_reps || total < 300.0) {
    Timer t;
    fn();
    const double ms = t.Millis();
    best = best < ms ? best : ms;
    total += ms;
    ++reps;
    if (reps > 200) break;
  }
  return best;
}

struct Case {
  // matmul | matmul_bt | matmul_at | matmul_packed | naive_matmul |
  // matmul_int8
  const char* kernel;
  int64_t m, k, n;
};

void RunCase(const Case& c, int threads, std::vector<BenchRecord>* out) {
  Rng rng(7);
  // Shapes: matmul is (m x k)@(k x n); BT is (m x k)@(n x k)^T; AT is
  // (k x m)^T@(k x n). All produce an m x n output.
  const std::string kernel(c.kernel);
  Tensor a, b;
  if (kernel == "matmul_at") {
    a = RandomTensor(c.k, c.m, &rng);
    b = RandomTensor(c.k, c.n, &rng);
  } else if (kernel == "matmul_bt") {
    a = RandomTensor(c.m, c.k, &rng);
    b = RandomTensor(c.n, c.k, &rng);
  } else {
    a = RandomTensor(c.m, c.k, &rng);
    b = RandomTensor(c.k, c.n, &rng);
  }
  // The Linear-layer scenario: B is packed once (per optimizer step) and
  // the panels are reused across every batch, so packing stays outside the
  // timed region.
  const PackedMatrix packed =
      kernel == "matmul_packed" ? PackForMatMul(b) : PackedMatrix{};
  // Low-precision weight-side storage, also prepared outside the timed
  // region (packed once per weight version, like PackedMatrix).
  const PackedInt8Matrix packed8 = kernel == "matmul_int8"
                                       ? PackForMatMulInt8(b).value()
                                       : PackedInt8Matrix{};
  float sink = 0.0f;
  auto run = [&] {
    Tensor r;
    if (kernel == "matmul") {
      r = MatMul(a, b);
    } else if (kernel == "matmul_bt") {
      r = MatMulBT(a, b);
    } else if (kernel == "matmul_at") {
      r = MatMulAT(a, b);
    } else if (kernel == "matmul_packed") {
      r = MatMulPacked(a, packed);
    } else if (kernel == "matmul_int8") {
      r = MatMulInt8(a, packed8);
    } else {
      r = NaiveMatMul(a, b);
    }
    sink += r.data()[0];
  };
  // One warm-up invocation under a counter delta records which route the
  // dispatcher took (the route is deterministic, so one rep suffices).
  CounterDeltas deltas({"gemm_serial_total", "gemm_parallel_total"});
  run();
  const int64_t parallel_route = deltas.Delta("gemm_parallel_total");
  const double ms = BestMs(run);
  BenchRecord rec;
  rec.name = StrFormat("%s_%" PRId64 "x%" PRId64 "x%" PRId64 "/t%d",
                       c.kernel, c.m, c.k, c.n, threads);
  rec.wall_ms = ms;
  rec.rate = static_cast<double>(c.m) / (ms / 1e3);
  rec.threads = threads;
  const double flops = 2.0 * static_cast<double>(c.m) *
                       static_cast<double>(c.k) * static_cast<double>(c.n);
  rec.extra.emplace_back("gflops", flops / (ms * 1e6));
  // 1 when the instrumented dispatcher chose the pool (always 0 for the
  // naive baseline, which bypasses the dispatcher; also 0 with metrics
  // disabled, where the counters never move).
  rec.extra.emplace_back("dispatch_parallel",
                         static_cast<double>(parallel_route));
  // 1 on the AVX2 build, 0 on the portable scalar build — the scalar-vs-
  // SIMD comparison is this file diffed across the two CMake configs
  // (results are bit-identical; only the times move).
  rec.extra.emplace_back("simd", kern::SimdEnabled() ? 1.0 : 0.0);
  out->push_back(rec);
  std::printf("%-32s %10.3f ms %10.2f GFLOP/s\n", rec.name.c_str(), ms,
              flops / (ms * 1e6));
  if (sink == 12345.678f) std::printf(" \n");  // defeat dead-code elim
}

/// Packed vs unpacked Linear forward (the autograd-level consumer of the
/// packed kernel): same weights, same input, one timed forward each.
void RunLinearCase(int64_t batch, int64_t in, int64_t out_dim, int threads,
                   std::vector<BenchRecord>* out) {
  Rng rng(9);
  Linear lin(in, out_dim, &rng);
  Tensor x = RandomTensor(batch, in, &rng);
  (void)lin.GetPackedWeight();  // pack outside the timed region
  float sink = 0.0f;
  for (const bool use_packed : {false, true}) {
    auto run = [&] {
      VarPtr xin = ag::Constant(x);
      VarPtr y = use_packed
                     ? lin.Forward(xin)
                     : ag::AddBias(ag::MatMul(xin, lin.weight()), lin.bias());
      sink += y->value().data()[0];
    };
    const double ms = BestMs(run);
    BenchRecord rec;
    rec.name = StrFormat("linear_fwd_%s_%" PRId64 "x%" PRId64 "x%" PRId64
                         "/t%d",
                         use_packed ? "packed" : "unpacked", batch, in,
                         out_dim, threads);
    rec.wall_ms = ms;
    rec.rate = static_cast<double>(batch) / (ms / 1e3);
    rec.threads = threads;
    const double flops = 2.0 * static_cast<double>(batch) *
                         static_cast<double>(in) *
                         static_cast<double>(out_dim);
    rec.extra.emplace_back("gflops", flops / (ms * 1e6));
    rec.extra.emplace_back("simd", kern::SimdEnabled() ? 1.0 : 0.0);
    out->push_back(rec);
    std::printf("%-32s %10.3f ms %10.2f GFLOP/s\n", rec.name.c_str(), ms,
                flops / (ms * 1e6));
  }
  if (sink == 12345.678f) std::printf(" \n");
}

/// Storage-codec accuracy: quantize→dequantize round-trip error of a
/// standard-normal matrix through the int8 representation, recorded
/// alongside the throughput numbers so accuracy regressions in the codec
/// show up in the same cross-PR diff.
void RunRoundTripCase(int64_t rows, int64_t cols,
                      std::vector<BenchRecord>* out) {
  Rng rng(11);
  Tensor t = RandomTensor(rows, cols, &rng);
  auto q = QuantizedTensor::FromTensor(t).value();
  const Tensor restored = q.Dequantize();
  const double bytes_ratio = static_cast<double>(q.bytes()) /
                             (static_cast<double>(t.numel()) * sizeof(float));
  double max_err = 0.0, sum_err = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    const double e = std::fabs(static_cast<double>(restored.data()[i]) -
                               static_cast<double>(t.data()[i]));
    max_err = max_err > e ? max_err : e;
    sum_err += e;
  }
  BenchRecord rec;
  rec.name = StrFormat("roundtrip_int8_%" PRId64 "x%" PRId64, rows, cols);
  rec.wall_ms = 0.0;
  rec.rate = 0.0;
  rec.threads = 1;
  rec.extra.emplace_back("max_abs_err", max_err);
  rec.extra.emplace_back("mean_abs_err",
                         sum_err / static_cast<double>(t.numel()));
  rec.extra.emplace_back("bytes_ratio_vs_fp32", bytes_ratio);
  out->push_back(rec);
  std::printf("%-32s max|err| %.6f mean|err| %.6f bytes %.3fx\n",
              rec.name.c_str(), max_err,
              sum_err / static_cast<double>(t.numel()), bytes_ratio);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_gemm.json";
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::vector<Case> cases = {
      {"naive_matmul", 512, 512, 512},
      {"naive_matmul", 128, 64, 64},
      {"naive_matmul", 2048, 128, 128},
      {"matmul", 512, 512, 512},
      {"matmul_bt", 512, 512, 512},
      {"matmul_at", 512, 512, 512},
      {"matmul_packed", 512, 512, 512},
      {"matmul", 128, 64, 64},
      {"matmul", 2048, 128, 128},
      {"matmul_packed", 2048, 128, 128},
      // The int8 kernel at the headline shape plus odd widths
      // (n % 8 != 0 and n % 16 != 0) that exercise the panel/vector tails.
      {"matmul_int8", 512, 512, 512},
      {"matmul_int8", 512, 512, 509},
      {"matmul_int8", 2048, 128, 100},
  };
  std::vector<BenchRecord> records;
  std::printf("=== GEMM kernels (best-of-N wall time, %s build) ===\n",
              kern::SimdName());
  for (int t : thread_counts) {
    ThreadPool::SetNumThreadsForTesting(t);
    for (const Case& c : cases) {
      // The naive baseline is single-threaded by construction; measure it
      // once at t=1 only.
      if (std::string(c.kernel) == "naive_matmul" && t != 1) continue;
      RunCase(c, t, &records);
    }
  }
  ThreadPool::SetNumThreadsForTesting(1);
  RunLinearCase(2048, 128, 128, 1, &records);
  RunRoundTripCase(512, 512, &records);
  return WriteBenchJson(out_path, "gemm_kernels", records) ? 0 : 1;
}
