// relbench: one workload of the repository benchmark per process.
//
//   relbench --workload train|serve_cold|serve_mixed --seed N --seconds S
//            --trace 0|1 [--smoke] [--spans FILE] [--scratch DIR]
//            [--commit ID]
//
// Prints one JSON line: correctness verdict, request counts, the gates
// that ran, provenance, every metric the run measured (end-to-end
// metrics untraced, per-layer metrics traced) and, traced, the count,
// total and self time of every span name. perfbench/run.py builds
// this binary, runs it and reduces its line to the benchmark's result.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/metrics.h"
#include "core/parallel.h"

#ifndef RELBENCH_BUILD_TYPE
#define RELBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "relbench: %s\nusage: relbench --workload "
               "train|serve_cold|serve_mixed --seed N --seconds S --trace 0|1 "
               "[--smoke] [--spans FILE] [--scratch DIR] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  relbench::RunOptions opts;
  opts.scratch_dir = ".";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opts.trace = value() == "1";
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--spans") {
      opts.spans_path = value();
    } else if (a == "--scratch") {
      opts.scratch_dir = value();
    } else if (a == "--commit") {
      commit = value();
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  const bool train = opts.workload == "train";
  if (!train && opts.workload != "serve_cold" &&
      opts.workload != "serve_mixed") {
    return Usage("unknown workload");
  }
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  // Thread budget (nproc = 4): train runs 1 caller on a pool of 2 (the
  // caller and one worker); the serving workloads run 2 client threads on
  // a pool of 1 (no workers). A pool of 4 on a 4-vCPU host ran Execute
  // no faster than a pool of 1 or 2, but any other runnable thread stalled
  // its parallel regions: one concurrent compile slowed Execute 4x, and
  // run-to-run drift reached 30%. The pool starts lazily, so fixing the
  // variable here fixes its size.
  setenv("RELGRAPH_NUM_THREADS", train ? "2" : "1", 1);
  // Inputs the benchmark does not control stay out of the run.
  for (const char* var : {"RELGRAPH_PRECISION", "RELGRAPH_FAULTS",
                          "RELGRAPH_ARENA", "RELGRAPH_ARENA_DEBUG"}) {
    unsetenv(var);
  }
  relgraph::SetMetricsEnabled(true);  // gemm and cache counters

  relbench::RunResult res =
      train ? relbench::RunTrain(opts) : relbench::RunServe(opts);
  res.Metric("peak_rss_mb", relbench::PeakRssMiB(), "MiB");
  if (!opts.spans_path.empty() && opts.trace &&
      !relbench::Tracer::Get().Dump(opts.spans_path)) {
    res.notes.push_back("could not write spans to " + opts.spans_path);
  }

  res.info["workload"] = opts.workload;
  res.info["seed"] = std::to_string(opts.seed);
  res.info["seconds"] = JsonNumber(opts.seconds);
  res.info["trace"] = opts.trace ? "1" : "0";
  res.info["smoke"] = opts.smoke ? "1" : "0";
  res.info["commit"] = commit;
  res.info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  res.info["cpu_model"] = CpuModel();
  res.info["build_type"] = RELBENCH_BUILD_TYPE;
  res.info["simd"] = RELBENCH_SIMD ? "on" : "off";
  res.info["threads.pool"] = std::to_string(relgraph::NumThreads());

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"valid\": ";
  out += res.valid ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"gates\": [";
  for (size_t i = 0; i < res.gates.size(); ++i) {
    out += (i ? ", " : "") + JsonString(res.gates[i]);
  }
  out += "], \"notes\": [";
  for (size_t i = 0; i < res.notes.size(); ++i) {
    out += (i ? ", " : "") + JsonString(res.notes[i]);
  }
  out += "], \"info\": {";
  bool first = true;
  for (const auto& [k, v] : res.info) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, vu] : res.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(vu.first) + ", \"unit\": " + JsonString(vu.second) + "}";
    first = false;
  }
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, agg] : relbench::Tracer::Get().Aggregate()) {
    out += (first ? "" : ", ") + JsonString(name) +
           ": {\"count\": " + std::to_string(agg.count) +
           ", \"total_s\": " + JsonNumber(agg.total_s) +
           ", \"self_s\": " + JsonNumber(agg.self_s) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
