#ifndef RELGRAPH_BENCH_BENCH_UTIL_H_
#define RELGRAPH_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark binaries: standard
// dataset configurations, a fixed-width table printer, and the recall
// metric computed from engine rankings. Every bench prints deterministic
// numbers for the seeds baked in here.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/atomic_io.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "datagen/clinical.h"
#include "datagen/ecommerce.h"
#include "datagen/social.h"
#include "pq/engine.h"
#include "train/metrics.h"

namespace relgraph {
namespace bench {

/// The three evaluation databases used across the accuracy benches.
inline Database StandardECommerce(uint64_t seed = 101) {
  ECommerceConfig cfg;
  cfg.num_users = 800;
  cfg.num_products = 120;
  cfg.num_categories = 8;
  cfg.horizon_days = 180;
  cfg.seed = seed;
  return MakeECommerceDb(cfg);
}

inline Database StandardClinical(uint64_t seed = 102) {
  ClinicalConfig cfg;
  cfg.num_patients = 500;
  cfg.horizon_days = 365;
  cfg.seed = seed;
  return MakeClinicalDb(cfg);
}

inline Database StandardSocial(uint64_t seed = 103) {
  SocialConfig cfg;
  cfg.num_users = 500;
  cfg.horizon_days = 120;
  cfg.seed = seed;
  return MakeSocialDb(cfg);
}

/// Prints a ruled header for a results table.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns,
                        int first_width = 30, int col_width = 10) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-*s", first_width, "");
  for (const auto& c : columns) std::printf(" %*s", col_width, c.c_str());
  std::printf("\n");
}

/// Prints one table row of doubles.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& values,
                     int first_width = 30, int col_width = 10,
                     const char* fmt = "%.4f") {
  std::printf("%-*s", first_width, label.c_str());
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), fmt, v);
    std::printf(" %*s", col_width, buf);
  }
  std::printf("\n");
}

/// Runs a query, printing an error and returning false on failure.
inline bool Run(PredictiveQueryEngine* engine, const std::string& query,
                QueryResult* out) {
  auto result = engine->Execute(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), query.c_str());
    return false;
  }
  *out = std::move(result).value();
  return true;
}

/// One measured configuration of a benchmark, destined for BENCH_*.json.
struct BenchRecord {
  std::string name;    ///< e.g. "matmul_512x512x512/t4"
  double wall_ms = 0;  ///< best observed wall time per iteration
  double rate = 0;     ///< primary throughput metric, rows (items) per second
  int threads = 1;     ///< pool threads the measurement ran with
  /// Additional metrics, emitted verbatim (e.g. {"gflops", 1.23}).
  std::vector<std::pair<std::string, double>> extra;
};

/// One result object of the stable BENCH_*.json shape, no trailing comma.
inline std::string FormatBenchRecord(const BenchRecord& r) {
  std::string json = StrFormat(
      "    {\"name\": \"%s\", \"wall_ms\": %.4f, \"rows_per_s\": %.1f, "
      "\"threads\": %d",
      r.name.c_str(), r.wall_ms, r.rate, r.threads);
  for (const auto& [key, value] : r.extra) {
    json += StrFormat(", \"%s\": %.4f", key.c_str(), value);
  }
  json += "}";
  return json;
}

/// Writes machine-readable benchmark output into one BENCH_*.json shared
/// by every bench of an area. The JSON shape is stable — perf tracking
/// across PRs diffs these files directly:
///   {"bench": "...", "results": [{"name": ..., "wall_ms": ...,
///     "rows_per_s": ..., "threads": ..., ...extras}, ...]}
/// An existing file keeps its header and every record this call does not
/// name; a record whose name is already present replaces it in place, and
/// new names are appended. `bench` labels a file this call creates (or
/// one not in the expected one-record-per-line shape, which is rewritten).
/// Returns false (after printing the error) if the write fails.
inline bool WriteBenchJson(const std::string& path, const std::string& bench,
                           const std::vector<BenchRecord>& records) {
  static constexpr std::string_view kOpen = "\"results\": [\n";
  static constexpr std::string_view kNamePrefix = "    {\"name\": \"";
  std::ifstream in(path);
  const std::string existing((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  // (name, formatted line) in file order.
  std::vector<std::pair<std::string, std::string>> lines;
  auto upsert = [&lines](std::string name, std::string line) {
    for (auto& [n, l] : lines) {
      if (n == name) {
        l = std::move(line);
        return;
      }
    }
    lines.emplace_back(std::move(name), std::move(line));
  };
  std::string header = "{\n  \"bench\": \"" + bench + "\",\n  ";
  const size_t open = existing.find(kOpen);
  const size_t close = existing.rfind("  ]\n}");
  if (open != std::string::npos && close != std::string::npos &&
      close >= open + kOpen.size()) {
    header = existing.substr(0, open);
    std::istringstream body(existing.substr(
        open + kOpen.size(), close - open - kOpen.size()));
    for (std::string line; std::getline(body, line);) {
      if (!line.empty() && line.back() == ',') line.pop_back();
      if (line.rfind(kNamePrefix, 0) != 0) continue;
      const size_t end = line.find('"', kNamePrefix.size());
      if (end == std::string::npos) continue;
      upsert(line.substr(kNamePrefix.size(), end - kNamePrefix.size()),
             line);
    }
  }
  for (const BenchRecord& r : records) upsert(r.name, FormatBenchRecord(r));
  std::string json = header + std::string(kOpen);
  for (size_t i = 0; i < lines.size(); ++i) {
    json += lines[i].second + (i + 1 < lines.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  Status st = AtomicWriteFile(path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return false;
  }
  std::printf("wrote %zu records to %s (%zu in file)\n", records.size(),
              path.c_str(), lines.size());
  return true;
}

/// Reads the current value of a process counter (0 when it has never been
/// touched), for benches that report metric deltas next to timings.
inline int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Counter deltas across a benchmarked region: construct before, call
/// Delta(name) after. Lets a bench attach e.g. GEMM dispatch counts to its
/// BenchRecord extras without resetting the process-wide registry.
class CounterDeltas {
 public:
  explicit CounterDeltas(std::vector<std::string> names) {
    for (std::string& name : names) {
      start_.emplace_back(std::move(name), 0);
      start_.back().second = CounterValue(start_.back().first);
    }
  }

  int64_t Delta(const std::string& name) const {
    for (const auto& [n, v] : start_) {
      if (n == name) return CounterValue(n) - v;
    }
    return CounterValue(name);
  }

 private:
  std::vector<std::pair<std::string, int64_t>> start_;
};

/// Recall@k of a ranking result's test rankings.
inline double TestRecallAtK(const QueryResult& r, int64_t k) {
  std::vector<std::vector<int64_t>> relevant;
  relevant.reserve(r.split.test.size());
  for (int64_t i : r.split.test) {
    relevant.push_back(r.table.target_lists[static_cast<size_t>(i)]);
  }
  return RecallAtK(r.test_rankings, relevant, k);
}

}  // namespace bench
}  // namespace relgraph

#endif  // RELGRAPH_BENCH_BENCH_UTIL_H_
