// Serving-precision accuracy/footprint benchmark.
//
// Trains one churn classifier (binary, AUC) and one order-count regressor
// (MAE) on the e-commerce generator, then serves the held-out test
// entities at each precision mode (fp32 | int8), on both the fp32
// feature graph and the int8-quantized feature graph. For every
// configuration it records the task metric, its delta vs the fp32/fp32
// baseline, serving throughput, and the snapshot's bytes-per-node — the
// numbers quoted in docs/performance.md ("Low-precision kernels").
//
// fp32 rows double as a regression guard: their deltas are exactly 0 by
// the byte-equality contract.
//
// Usage: bench_precision [serve.json [gemm.json]]
//        (defaults BENCH_serve.json, BENCH_gemm.json; records are spliced
//        into both files so accuracy deltas ride with the perf numbers)

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "train/metrics.h"
#include "train/trainer.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

GnnConfig ModelConfig() {
  GnnConfig gnn;
  gnn.hidden_dim = 32;
  gnn.num_layers = 2;
  return gnn;
}

SamplerOptions SamplerConfig() {
  SamplerOptions sopts;
  sopts.fanouts = {8, 8};
  sopts.policy = SamplePolicy::kMostRecent;
  return sopts;
}

struct TaskSetup {
  const char* name;      // churn | spend
  const char* query;
  const char* metric;    // auc | mae
};

struct EvalBatch {
  std::vector<int64_t> ids;
  std::vector<double> labels;
  Timestamp cutoff = 0;
};

/// Test examples sharing the split's final cutoff (the engine scores one
/// point in time, so evaluation sticks to the matching examples).
EvalBatch TestBatch(const TrainingTable& table, const Split& split) {
  EvalBatch out;
  for (int64_t row : split.test) {
    out.cutoff = std::max(out.cutoff, table.cutoffs[row]);
  }
  for (int64_t row : split.test) {
    if (table.cutoffs[row] != out.cutoff) continue;
    out.ids.push_back(table.entity_rows[row]);
    out.labels.push_back(table.labels[row]);
  }
  return out;
}

void RunTask(const TaskSetup& task, const Database& db,
             std::vector<BenchRecord>* records) {
  auto rq = AnalyzeQuery(ParseQuery(task.query).value(), db).value();
  auto cutoffs = MakeCutoffs(rq, db).value();
  auto table = BuildTrainingTable(rq, db, cutoffs).value();
  auto split = MakeSplit(rq, table, cutoffs).value();
  const EvalBatch eval = TestBatch(table, split);

  auto dbg = BuildDbGraph(db).value();
  GraphBuilderOptions qopts;
  qopts.quantize_features = true;
  auto qdbg = BuildDbGraph(db, qopts).value();
  const NodeTypeId entity =
      dbg.graph.FindNodeType(table.entity_table).value();

  TrainerConfig tc;
  tc.epochs = 6;
  tc.seed = 3;
  GnnNodePredictor trainer(&dbg.graph, entity, table.kind,
                           table.num_classes, ModelConfig(), SamplerConfig(),
                           tc);
  if (!trainer.Fit(table, split).ok()) {
    std::fprintf(stderr, "%s: training failed\n", task.name);
    return;
  }
  const std::string ckpt = "/tmp/bench_precision." +
                           std::to_string(getpid()) + ".ckpt";
  if (!trainer.SaveWeights(ckpt).ok()) return;

  double fp32_metric = 0.0;
  for (const bool quantized_graph : {false, true}) {
    const HeteroGraph* graph = quantized_graph ? &qdbg.graph : &dbg.graph;
    for (Precision p : {Precision::kFp32, Precision::kInt8}) {
      ServeOptions serve;
      serve.precision = p;
      InferenceEngine engine(graph, entity, table.kind, table.num_classes,
                             ModelConfig(), SamplerConfig(), eval.cutoff,
                             serve);
      if (!engine.LoadCheckpoint(ckpt).ok()) continue;
      Timer t;
      auto scores = engine.Score(eval.ids);
      const double ms = t.Millis();
      if (!scores.ok()) continue;
      const double metric =
          std::string(task.metric) == "auc"
              ? RocAuc(scores.value(), eval.labels)
              : MeanAbsoluteError(scores.value(), eval.labels);
      if (!quantized_graph && p == Precision::kFp32) fp32_metric = metric;

      BenchRecord rec;
      rec.name = StrFormat("precision_%s_%s%s", task.name, PrecisionName(p),
                           quantized_graph ? "_qfeat" : "");
      rec.wall_ms = ms;
      rec.rate = static_cast<double>(eval.ids.size()) / (ms / 1e3);
      rec.threads = 1;
      rec.extra.emplace_back(task.metric, metric);
      rec.extra.emplace_back(std::string(task.metric) + "_delta_vs_fp32",
                             metric - fp32_metric);
      rec.extra.emplace_back("bytes_per_node",
                             engine.HealthStatus().bytes_per_node);
      records->push_back(rec);
      std::printf("%-36s %s %.4f  delta %+.4f  %8.1f ent/s  %7.1f B/node\n",
                  rec.name.c_str(), task.metric, metric,
                  metric - fp32_metric, rec.rate,
                  engine.HealthStatus().bytes_per_node);
    }
  }
  std::remove(ckpt.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string serve_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::string gemm_path = argc > 2 ? argv[2] : "BENCH_gemm.json";

  ECommerceConfig cfg;
  cfg.num_users = 300;
  cfg.num_products = 60;
  cfg.num_categories = 6;
  cfg.horizon_days = 180;
  Database db = MakeECommerceDb(cfg);

  const std::vector<TaskSetup> tasks = {
      {"churn",
       "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users",
       "auc"},
      {"orders",
       "PREDICT COUNT(orders) OVER NEXT 28 DAYS FOR EACH users",
       "mae"},
  };

  std::printf("=== serving precision: accuracy vs footprint ===\n");
  std::vector<BenchRecord> records;
  for (const TaskSetup& task : tasks) RunTask(task, db, &records);
  if (records.empty()) return 1;
  const bool ok_serve = WriteBenchJson(serve_path, "serve", records);
  const bool ok_gemm = WriteBenchJson(gemm_path, "gemm_kernels", records);
  return ok_serve && ok_gemm ? 0 : 1;
}
