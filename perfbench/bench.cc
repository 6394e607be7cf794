#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

#include "core/metrics.h"

namespace relbench {

void RunResult::Gate(const std::string& name, bool passed,
                  const std::string& detail) {
  gates.push_back(name + (passed ? ": pass" : ": FAIL") +
                  (detail.empty() ? "" : " (" + detail + ")"));
  if (!passed) correct = false;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::string JoinNumbers(const std::vector<double>& v) {
  std::string list;
  for (double x : v) list += (list.empty() ? "" : " ") + std::to_string(x);
  return list;
}

double PeakRssMiB() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak resident set size
    std::fclose(f);
  }
}

int64_t CounterValue(const char* name) {
  return relgraph::MetricsRegistry::Global().GetCounter(name)->value();
}

// ------------------------------------------------------------ heap counter
//
// Striped counters: each thread adds to its own cache line, so counting
// on the 4-thread training path does not serialize allocations.

namespace {

constexpr int kStripes = 64;
struct alignas(64) Stripe {
  std::atomic<int64_t> allocs{0};
  std::atomic<int64_t> bytes{0};
};
Stripe g_stripes[kStripes];
std::atomic<bool> g_counting{false};
std::atomic<int> g_next_stripe{0};
thread_local int t_stripe = -1;

inline void Count(size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_stripe < 0) {
    t_stripe = g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
               kStripes;
  }
  Stripe& s = g_stripes[t_stripe];
  s.allocs.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
}

void* Allocate(size_t n) {
  Count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  Count(n);
  const size_t a = static_cast<size_t>(align);
  const size_t size = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size == 0 ? a : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void EnableHeapCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

HeapTotals HeapNow() {
  HeapTotals t;
  for (const Stripe& s : g_stripes) {
    t.allocs += s.allocs.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return t;
}

// ------------------------------------------------------------------ tracer

namespace {

constexpr size_t kMaxRetainedSpans = 200000;  // per thread, for the dump

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the same thread's records, -1 for a root
  int64_t request;
};

struct OpenSpan {
  const char* name;
  int64_t start_ns;
  int64_t record;    // retained record index, or -1
  double child_s;    // time covered by direct children
};

struct ThreadSpans {
  int thread = 0;
  std::vector<SpanRecord> records;
  std::vector<OpenSpan> stack;
  // Keyed by the literal's address: no allocation per span end, so the
  // tracer does not pollute the heap counts it sits next to.
  std::map<const char*, Tracer::Agg> agg;
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by mu
thread_local ThreadSpans* t_spans = nullptr;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadSpans* Mine() {
  if (t_spans == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->thread = static_cast<int>(g_threads.size()) - 1;
    g_threads.back()->records.reserve(1 << 16);
    g_threads.back()->stack.reserve(64);
    t_spans = g_threads.back().get();
  }
  return t_spans;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, int64_t request) {
  ThreadSpans* ts = Mine();
  OpenSpan open{name, SteadyNs(), -1, 0.0};
  if (ts->records.size() < kMaxRetainedSpans) {
    const int64_t parent =
        ts->stack.empty() ? -1 : ts->stack.back().record;
    open.record = static_cast<int64_t>(ts->records.size());
    ts->records.push_back({name, open.start_ns, 0, parent, request});
  }
  ts->stack.push_back(open);
  return static_cast<int>(ts->stack.size()) - 1;
}

void Tracer::End(int handle) {
  ThreadSpans* ts = Mine();
  // Spans nest strictly per thread (they are scoped), so the handle is the
  // top of the stack.
  if (handle != static_cast<int>(ts->stack.size()) - 1) return;
  const OpenSpan open = ts->stack.back();
  ts->stack.pop_back();
  const int64_t end_ns = SteadyNs();
  const double dur = static_cast<double>(end_ns - open.start_ns) * 1e-9;
  if (open.record >= 0) {
    ts->records[static_cast<size_t>(open.record)].end_ns = end_ns;
  }
  Agg& a = ts->agg[open.name];
  ++a.count;
  a.total_s += dur;
  a.self_s += dur - open.child_s;
  if (!ts->stack.empty()) ts->stack.back().child_s += dur;
}

std::map<std::string, Tracer::Agg> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::map<std::string, Agg> out;
  for (const auto& ts : g_threads) {
    for (const auto& [name, a] : ts->agg) {
      Agg& o = out[name];
      o.count += a.count;
      o.total_s += a.total_s;
      o.self_s += a.self_s;
    }
  }
  return out;
}

Tracer::Agg Tracer::Of(const std::string& name) const {
  const auto all = Aggregate();
  auto it = all.find(name);
  return it == all.end() ? Agg{} : it->second;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& ts : g_threads) {
    for (const SpanRecord& r : ts->records) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                   r.name, ts->thread, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   static_cast<long long>(r.request));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : start_(std::chrono::steady_clock::now()) {
  if (Tracer::Get().enabled()) handle_ = Tracer::Get().Begin(name, request);
}

double ScopedSpan::Stop() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  if (handle_ >= 0) Tracer::Get().End(handle_);
  return seconds_;
}

}  // namespace relbench

// ------------------------------------------- global operator new / delete
//
// Replaced for the whole benchmark binary (and so for every library it
// links): the count covers every heap allocation, not only the tensor
// arena's buffers.

void* operator new(size_t n) { return relbench::Allocate(n); }
void* operator new[](size_t n) { return relbench::Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return relbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  try {
    return relbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(size_t n, std::align_val_t a) {
  return relbench::AllocateAligned(n, a);
}
void* operator new[](size_t n, std::align_val_t a) {
  return relbench::AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
