// Shared pieces of the relbench driver: run options, the result record,
// order statistics, the whole-process heap counter and the span tracer.
//
// The benchmark measures RelGraph from outside: every span wraps a call
// the benchmark itself makes into one module's public functions, and no
// code under src/ knows it is being measured.

#ifndef RELGRAPH_PERFBENCH_BENCH_H_
#define RELGRAPH_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace relbench {

// ---------------------------------------------------------------- options

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // tiny sizes: the benchmark's own test
  std::string spans_path;   // where the tracer writes its spans at exit
  std::string scratch_dir;  // checkpoints and other run-local files
};

// ----------------------------------------------------------------- result

/// Everything one workload process reports. `metrics` holds every metric
/// the run measured (end-to-end and per-layer); run.py keeps the ones the
/// requested mode declares.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> gates;  // correctness checks that ran
  std::vector<std::string> notes;  // run validity and other remarks
  bool valid = true;               // false: the load generator fell behind
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;                     // name -> (value, unit), in emit order
  std::map<std::string, std::string> info;  // provenance and sizes

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Gate(const std::string& name, bool passed, const std::string& detail);
};

// -------------------------------------------------------------- statistics

double NowSeconds();

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
/// Space-separated values, for the provenance line.
std::string JoinNumbers(const std::vector<double>& v);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// Returns freed heap to the OS and restarts the peak-RSS count from the
/// current resident size, so repeated set-ups do not inflate the peak.
void ResetPeakRss();

/// Current value of a RelGraph metrics-registry counter.
int64_t CounterValue(const char* name);

// ------------------------------------------------------------ heap counter

/// Whole-process `operator new` totals since start. Counting is off until
/// EnableHeapCounting(true): the end-to-end runs leave it off so the
/// replaced allocator costs one relaxed load per allocation there.
struct HeapTotals {
  int64_t allocs = 0;
  int64_t bytes = 0;
};
void EnableHeapCounting(bool on);
HeapTotals HeapNow();

// ------------------------------------------------------------------ tracer

/// In-memory span recorder. A span has a name, start, end, the span that
/// was open on the same thread when it began (its parent) and a request
/// id. Self time is the duration minus the time direct children cover;
/// per-name totals are kept online so the per-layer metrics do not depend
/// on how many raw spans are retained for the dump.
class Tracer {
 public:
  struct Agg {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Per-name totals merged over every thread.
  std::map<std::string, Agg> Aggregate() const;
  Agg Of(const std::string& name) const;

  /// Writes the retained spans as JSON lines; returns false on I/O error.
  bool Dump(const std::string& path) const;

  // Internal to ScopedSpan.
  int Begin(const char* name, int64_t request);
  void End(int handle);

 private:
  bool enabled_ = false;
};

/// RAII span. Always measures its own duration (seconds()), and records a
/// span only while the tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in seconds.
  double Stop();

 private:
  int handle_ = -1;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
};

// --------------------------------------------------------------- workloads

RunResult RunTrain(const RunOptions& opts);
RunResult RunServe(const RunOptions& opts);

}  // namespace relbench

#endif  // RELGRAPH_PERFBENCH_BENCH_H_
