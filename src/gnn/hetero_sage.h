#ifndef RELGRAPH_GNN_HETERO_SAGE_H_
#define RELGRAPH_GNN_HETERO_SAGE_H_

#include <memory>
#include <vector>

#include "sampler/subgraph.h"
#include "tensor/nn.h"

namespace relgraph {

/// Neighbor aggregation used inside HeteroSage layers.
enum class GnnAggregation { kMean, kSum, kMax };

/// Convolution flavour: plain GraphSAGE aggregation or GAT-style
/// per-edge attention (softmax over sampled neighbors).
enum class GnnConv { kSage, kAttention };

/// Hyper-parameters of the heterogeneous GraphSAGE encoder.
struct GnnConfig {
  int64_t hidden_dim = 64;

  /// Number of message-passing layers; must match the sampler's fanout
  /// depth (each layer consumes one frontier).
  int64_t num_layers = 2;

  float dropout = 0.0f;

  GnnAggregation aggregation = GnnAggregation::kMean;

  /// kAttention replaces the fixed aggregation with learned attention
  /// weights alpha(u,v) = softmax_u LeakyReLU(a_s.h_u + a_t.h_v) per edge
  /// type (GATv1-style, single head).
  GnnConv conv = GnnConv::kSage;

  /// Applies learnable layer normalization to each layer's pre-activation
  /// output (one LayerNorm per layer, shared across node types).
  bool layer_norm = false;

  /// Appends two relative-time inputs to every node's raw features:
  /// log1p(days between the node's event and the seed's cutoff) and an
  /// is-static flag. Without this, temporal recency is invisible to the
  /// model (event timestamps are deliberately excluded from column
  /// features to avoid leakage).
  bool time_encoding = true;

  /// Appends, per outgoing edge type, log1p(pre-cutoff degree) to every
  /// node's raw features. Mean aggregation normalizes counts away; this
  /// restores activity-volume signal (e.g. "how many orders so far").
  bool degree_encoding = true;
};

/// Heterogeneous GraphSAGE over sampled subgraphs.
///
/// Architecture (the standard relational-deep-learning encoder):
///   - a per-node-type linear encoder maps raw table features to a shared
///     hidden width;
///   - each layer computes, per node type,
///       h_v = ReLU( W_self^{type} h_v + Σ_e W_e · agg_{u∈N_e(v)} h_u + b )
///     with one W_e per edge (FK) type, aggregating over the sampled block
///     edges only;
///   - the output is the embedding of the seed nodes (frontier 0).
///
/// The model is tied to one HeteroGraph's type/feature layout but not to
/// its data; any Subgraph sampled from a graph with the same layout works.
class HeteroSageModel : public Module {
 public:
  HeteroSageModel(const HeteroGraph* graph, const GnnConfig& config,
                  Rng* rng);

  /// Runs message passing over `sg` (which must have been sampled with
  /// depth == config.num_layers) and returns the seed embeddings
  /// [num_seeds × hidden_dim]. Reads features from the bound graph.
  VarPtr Forward(const Subgraph& sg, NodeTypeId seed_type, Rng* rng,
                 bool training) const;

  /// Forward over an explicit data graph with the IDENTICAL layout as the
  /// bound one, without rebinding. This is the epoch-snapshot serving
  /// entry: concurrent readers each pass their own pinned snapshot's
  /// graph, so the model itself stays read-only and multiple forwards over
  /// different snapshot versions can run at once.
  ///
  /// `precision` selects the storage precision of every Linear in the
  /// encoder (kFp32 is exactly the training forward; kInt8 is
  /// inference-only — `training` must be false). Node features stored
  /// quantized on `graph` are dequantized per element regardless of
  /// `precision` (feature storage and compute precision are independent
  /// knobs).
  VarPtr ForwardOn(const HeteroGraph* graph, const Subgraph& sg,
                   NodeTypeId seed_type, Rng* rng, bool training,
                   Precision precision = Precision::kFp32) const;

  std::vector<VarPtr> Parameters() const override;

  /// Swaps the underlying data graph for another with the IDENTICAL
  /// type/feature layout (same node/edge types, endpoints, and feature
  /// widths) — e.g. a fresher snapshot of the same database. Weights are
  /// untouched; a layout mismatch aborts.
  void RebindGraph(const HeteroGraph* graph);

  const GnnConfig& config() const { return config_; }

 private:
  struct Layer {
    /// Per node type: self transform (with bias).
    std::vector<std::unique_ptr<Linear>> self;
    /// Per edge type: message transform (no bias).
    std::vector<std::unique_ptr<Linear>> message;
    /// Per edge type: attention score vectors (kAttention only).
    std::vector<VarPtr> att_src;
    std::vector<VarPtr> att_dst;
    /// Pre-activation normalization (layer_norm only).
    std::unique_ptr<class LayerNorm> norm;
  };

  /// Raw input features for the deepest frontier of one node type,
  /// including the time/degree encodings, read from `graph`.
  Tensor InputFeatures(const HeteroGraph* graph, NodeTypeId type,
                       const std::vector<int64_t>& nodes,
                       const std::vector<Timestamp>& cutoffs) const;

  const HeteroGraph* graph_;
  GnnConfig config_;
  /// Per node type: edge types whose source is that type (degree features).
  std::vector<std::vector<EdgeTypeId>> out_edge_types_;
  /// Per node type: raw-features -> hidden encoder.
  std::vector<std::unique_ptr<Linear>> encoders_;
  std::vector<Layer> layers_;
};

}  // namespace relgraph

#endif  // RELGRAPH_GNN_HETERO_SAGE_H_
