// Property-based tests: invariants checked across parameter sweeps with
// TEST_P / INSTANTIATE_TEST_SUITE_P rather than single hand-picked cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/gbdt.h"
#include "core/rng.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "relational/query.h"
#include "sampler/neighbor_sampler.h"
#include "core/string_util.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "train/metrics.h"

namespace relgraph {
namespace {

// ================================================== sampler invariants

struct SamplerCase {
  int64_t fanout;
  int64_t depth;
  SamplePolicy policy;
  bool temporal;
};

class SamplerPropertyTest : public testing::TestWithParam<SamplerCase> {
 protected:
  static const DbGraph& Graph() {
    static DbGraph* graph = [] {
      ECommerceConfig cfg;
      cfg.num_users = 120;
      cfg.num_products = 30;
      cfg.num_categories = 4;
      cfg.horizon_days = 90;
      cfg.seed = 404;
      static Database* db = new Database(MakeECommerceDb(cfg));
      return new DbGraph(BuildDbGraph(*db).value());
    }();
    return *graph;
  }
};

TEST_P(SamplerPropertyTest, StructuralInvariantsHold) {
  const SamplerCase& param = GetParam();
  const DbGraph& dbg = Graph();
  const HeteroGraph& g = dbg.graph;
  SamplerOptions opts;
  opts.fanouts.assign(static_cast<size_t>(param.depth), param.fanout);
  opts.policy = param.policy;
  opts.temporal = param.temporal;
  NeighborSampler sampler(&g, opts);
  Rng rng(7);
  NodeTypeId users = g.FindNodeType("users").value();
  std::vector<int64_t> seeds = {0, 3, 7, 11, 19};
  const Timestamp cutoff = Days(60);
  Subgraph sg = sampler.Sample(users, seeds,
                               std::vector<Timestamp>(seeds.size(), cutoff),
                               &rng);
  ASSERT_EQ(sg.frontiers.size(), static_cast<size_t>(param.depth) + 1);
  ASSERT_EQ(sg.blocks.size(), static_cast<size_t>(param.depth));

  // (1) Self-prefix invariant at every layer/type.
  for (size_t k = 0; k + 1 < sg.frontiers.size(); ++k) {
    for (size_t t = 0; t < sg.frontiers[k].nodes.size(); ++t) {
      const auto& cur = sg.frontiers[k].nodes[t];
      const auto& next = sg.frontiers[k + 1].nodes[t];
      ASSERT_GE(next.size(), cur.size());
      for (size_t i = 0; i < cur.size(); ++i) EXPECT_EQ(next[i], cur[i]);
    }
  }
  // (2) All block indices valid; (3) per (target, edge type) edge count
  // bounded by the layer fanout.
  for (size_t k = 0; k < sg.blocks.size(); ++k) {
    for (const auto& block : sg.blocks[k]) {
      const NodeTypeId tgt_type = g.edge_src_type(block.edge_type);
      const NodeTypeId src_type = g.edge_dst_type(block.edge_type);
      const int64_t n_tgt = static_cast<int64_t>(
          sg.frontiers[k].nodes[tgt_type].size());
      const int64_t n_src = static_cast<int64_t>(
          sg.frontiers[k + 1].nodes[src_type].size());
      std::vector<int64_t> per_target(static_cast<size_t>(n_tgt), 0);
      ASSERT_EQ(block.target_local.size(), block.source_local.size());
      for (size_t i = 0; i < block.target_local.size(); ++i) {
        ASSERT_GE(block.target_local[i], 0);
        ASSERT_LT(block.target_local[i], n_tgt);
        ASSERT_GE(block.source_local[i], 0);
        ASSERT_LT(block.source_local[i], n_src);
        ++per_target[static_cast<size_t>(block.target_local[i])];
      }
      for (int64_t c : per_target) {
        EXPECT_LE(c, opts.fanouts[k]);
      }
    }
  }
  // (4) Temporal mode: no timestamped node at/after the cutoff anywhere.
  if (param.temporal) {
    for (const auto& frontier : sg.frontiers) {
      for (int32_t t = 0; t < g.num_node_types(); ++t) {
        for (int64_t node : frontier.nodes[static_cast<size_t>(t)]) {
          const Timestamp ts = g.node_time(t, node);
          if (ts != kNoTimestamp) {
            EXPECT_LT(ts, cutoff);
          }
        }
      }
    }
  }
  // (5) No duplicate (node, cutoff) entries within a frontier/type beyond
  // the seed layer (seeds may legitimately repeat).
  for (size_t k = 1; k < sg.frontiers.size(); ++k) {
    for (size_t t = 0; t < sg.frontiers[k].nodes.size(); ++t) {
      std::set<std::pair<int64_t, Timestamp>> seen;
      const auto& nodes = sg.frontiers[k].nodes[t];
      const auto& cuts = sg.frontiers[k].cutoffs[t];
      for (size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_TRUE(seen.emplace(nodes[i], cuts[i]).second)
            << "duplicate node " << nodes[i] << " layer " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerPropertyTest,
    testing::Values(SamplerCase{2, 1, SamplePolicy::kUniform, true},
                    SamplerCase{5, 2, SamplePolicy::kUniform, true},
                    SamplerCase{10, 2, SamplePolicy::kUniform, true},
                    SamplerCase{10, 3, SamplePolicy::kUniform, true},
                    SamplerCase{5, 2, SamplePolicy::kMostRecent, true},
                    SamplerCase{2, 3, SamplePolicy::kMostRecent, true},
                    SamplerCase{5, 2, SamplePolicy::kUniform, false},
                    SamplerCase{20, 1, SamplePolicy::kMostRecent, false}));

// ================================================== autograd gradients

struct GradCase {
  const char* op;
  int64_t rows;
  int64_t cols;
};

// Prints the op name rather than the raw bytes of the struct: the default
// byte dump includes the `op` pointer, which differs from run to run under
// ASLR, so the discovered test names would never be the same twice.
void PrintTo(const GradCase& c, std::ostream* os) {
  *os << c.op << " " << c.rows << "x" << c.cols;
}

class AutogradSweepTest : public testing::TestWithParam<GradCase> {};

TEST_P(AutogradSweepTest, NumericalGradientMatches) {
  const GradCase& param = GetParam();
  Rng rng(Fnv1a64(param.op) + static_cast<uint64_t>(param.rows * 31 +
                                                    param.cols));
  auto x = ag::Param(NormalInit(param.rows, param.cols, 1.0f, &rng));
  auto y = ag::Param(NormalInit(param.rows, param.cols, 1.0f, &rng));
  const std::string op = param.op;
  auto loss_fn = [&op](const std::vector<VarPtr>& in) -> VarPtr {
    VarPtr out;
    if (op == "tanh") {
      out = ag::Tanh(in[0]);
    } else if (op == "sigmoid") {
      out = ag::Sigmoid(in[0]);
    } else if (op == "exp") {
      out = ag::Exp(ag::Scale(in[0], 0.3f));  // bounded exponent
    } else if (op == "add") {
      out = ag::Add(in[0], in[1]);
    } else if (op == "sub") {
      out = ag::Sub(in[0], in[1]);
    } else if (op == "mul") {
      out = ag::Mul(in[0], in[1]);
    } else if (op == "scale") {
      out = ag::Scale(in[0], -1.7f);
    } else {
      ADD_FAILURE() << "unknown op " << op;
      out = in[0];
    }
    // Square so second-input gradients are non-trivial.
    return ag::Sum(ag::Mul(out, out));
  };
  std::vector<VarPtr> inputs = {x, y};
  VarPtr loss = loss_fn(inputs);
  for (auto& in : inputs) in->ZeroGrad();
  Backward(loss);
  const float eps = 1e-2f;
  for (auto& in : inputs) {
    for (int64_t i = 0; i < in->value().numel(); ++i) {
      const float orig = in->value().data()[i];
      in->mutable_value().data()[i] = orig + eps;
      const float up = loss_fn(inputs)->value().item();
      in->mutable_value().data()[i] = orig - eps;
      const float down = loss_fn(inputs)->value().item();
      in->mutable_value().data()[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(in->grad().data()[i], numeric,
                  3e-2f * std::max(1.0f, std::fabs(numeric)))
          << op << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AutogradSweepTest,
    testing::Values(GradCase{"tanh", 2, 3}, GradCase{"tanh", 5, 1},
                    GradCase{"sigmoid", 3, 3}, GradCase{"exp", 2, 4},
                    GradCase{"add", 4, 2}, GradCase{"sub", 3, 2},
                    GradCase{"mul", 2, 2}, GradCase{"scale", 1, 6}));

// ================================================== metric properties

class MetricsPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, AucInvariantUnderMonotoneTransform) {
  Rng rng(GetParam());
  const int n = 200;
  std::vector<double> scores(n), labels(n);
  for (int i = 0; i < n; ++i) {
    scores[static_cast<size_t>(i)] = rng.Normal(0, 1);
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  }
  const double auc = RocAuc(scores, labels);
  std::vector<double> transformed(n);
  for (int i = 0; i < n; ++i) {
    transformed[static_cast<size_t>(i)] =
        std::tanh(scores[static_cast<size_t>(i)]) * 10.0 + 3.0;
  }
  EXPECT_NEAR(RocAuc(transformed, labels), auc, 1e-12);
}

TEST_P(MetricsPropertyTest, AucFlipsUnderScoreNegation) {
  Rng rng(GetParam() + 1);
  const int n = 150;
  std::vector<double> scores(n), labels(n);
  for (int i = 0; i < n; ++i) {
    scores[static_cast<size_t>(i)] = rng.Uniform();  // ties unlikely
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  std::vector<double> negated(n);
  for (int i = 0; i < n; ++i) {
    negated[static_cast<size_t>(i)] = -scores[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(RocAuc(scores, labels) + RocAuc(negated, labels), 1.0, 1e-9);
}

TEST_P(MetricsPropertyTest, RmseDominatesMae) {
  Rng rng(GetParam() + 2);
  const int n = 100;
  std::vector<double> pred(n), truth(n);
  for (int i = 0; i < n; ++i) {
    pred[static_cast<size_t>(i)] = rng.Normal(0, 2);
    truth[static_cast<size_t>(i)] = rng.Normal(0, 2);
  }
  EXPECT_GE(RootMeanSquaredError(pred, truth) + 1e-12,
            MeanAbsoluteError(pred, truth));
}

TEST_P(MetricsPropertyTest, PerfectPredictionsAreOptimal) {
  Rng rng(GetParam() + 3);
  const int n = 50;
  std::vector<double> truth(n);
  for (int i = 0; i < n; ++i) {
    truth[static_cast<size_t>(i)] = rng.Normal(5, 3);
  }
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(RootMeanSquaredError(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(R2Score(truth, truth), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         testing::Values(11u, 22u, 33u, 44u, 55u));

// ============================================= windowed-aggregate algebra

class AggregatePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(AggregatePropertyTest, WindowAlgebraHolds) {
  ECommerceConfig cfg;
  cfg.num_users = 60;
  cfg.num_products = 20;
  cfg.num_categories = 4;
  cfg.horizon_days = 90;
  cfg.seed = GetParam();
  Database db = MakeECommerceDb(cfg);
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t pk = rng.UniformInt(1, cfg.num_users);
    const Timestamp a = Days(rng.UniformInt(0, 40));
    const Timestamp b = a + Days(rng.UniformInt(1, 25));
    const Timestamp c = b + Days(rng.UniformInt(1, 25));
    // Count additivity over adjacent windows.
    const double ab =
        AggregateWindow(idx, pk, a, b, AggKind::kCount, "").value();
    const double bc =
        AggregateWindow(idx, pk, b, c, AggKind::kCount, "").value();
    const double ac =
        AggregateWindow(idx, pk, a, c, AggKind::kCount, "").value();
    EXPECT_DOUBLE_EQ(ab + bc, ac);
    // Sum additivity.
    const double sum_ab =
        AggregateWindow(idx, pk, a, b, AggKind::kSum, "total").value();
    const double sum_bc =
        AggregateWindow(idx, pk, b, c, AggKind::kSum, "total").value();
    const double sum_ac =
        AggregateWindow(idx, pk, a, c, AggKind::kSum, "total").value();
    EXPECT_NEAR(sum_ab + sum_bc, sum_ac, 1e-9);
    // avg * count == sum; min <= avg <= max when nonempty.
    if (ac > 0) {
      const double avg =
          AggregateWindow(idx, pk, a, c, AggKind::kAvg, "total").value();
      const double mn =
          AggregateWindow(idx, pk, a, c, AggKind::kMin, "total").value();
      const double mx =
          AggregateWindow(idx, pk, a, c, AggKind::kMax, "total").value();
      EXPECT_NEAR(avg * ac, sum_ac, 1e-6);
      EXPECT_LE(mn, avg + 1e-9);
      EXPECT_LE(avg, mx + 1e-9);
      EXPECT_DOUBLE_EQ(
          AggregateWindow(idx, pk, a, c, AggKind::kExists, "").value(), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         testing::Values(201u, 202u, 203u, 204u));

// ===================================================== GBDT properties

class GbdtPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GbdtPropertyTest, ProbabilitiesInUnitIntervalAndFitImproves) {
  Rng rng(GetParam());
  const int n = 300;
  Tensor x(n, 3);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) {
      x.at(i, c) = static_cast<float>(rng.Normal(0, 1));
    }
    y[static_cast<size_t>(i)] =
        (x.at(i, 0) + 0.5 * x.at(i, 1) + rng.Normal(0, 0.3)) > 0 ? 1.0 : 0.0;
  }
  std::vector<int64_t> train, test;
  for (int64_t i = 0; i < 200; ++i) train.push_back(i);
  for (int64_t i = 200; i < n; ++i) test.push_back(i);
  GbdtModel model;
  ASSERT_TRUE(
      model.Fit(x, y, TaskKind::kBinaryClassification, train, {}).ok());
  auto preds = model.Predict(x, test);
  for (double p : preds) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  std::vector<double> truth(y.begin() + 200, y.end());
  EXPECT_GT(RocAuc(preds, truth), 0.8);
}

TEST_P(GbdtPropertyTest, RegressionPredictionsWithinLabelHull) {
  // Trees average training labels, so predictions can never leave the
  // [min, max] hull of the training labels (base score included).
  Rng rng(GetParam() + 10);
  const int n = 200;
  Tensor x(n, 2);
  std::vector<double> y(n);
  double lo = 1e30, hi = -1e30;
  for (int i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.Uniform(-2, 2));
    x.at(i, 1) = static_cast<float>(rng.Uniform(-2, 2));
    y[static_cast<size_t>(i)] = 3.0 * x.at(i, 0) + rng.Normal(0, 0.2);
    lo = std::min(lo, y[static_cast<size_t>(i)]);
    hi = std::max(hi, y[static_cast<size_t>(i)]);
  }
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  GbdtModel model;
  ASSERT_TRUE(model.Fit(x, y, TaskKind::kRegression, all, {}).ok());
  auto preds = model.Predict(x, all);
  const double margin = (hi - lo) * 0.05 + 1e-6;
  for (double p : preds) {
    EXPECT_GE(p, lo - margin);
    EXPECT_LE(p, hi + margin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbdtPropertyTest,
                         testing::Values(301u, 302u, 303u));

}  // namespace
}  // namespace relgraph
