#ifndef RELGRAPH_TENSOR_NN_H_
#define RELGRAPH_TENSOR_NN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/quantized.h"

namespace relgraph {

/// Base class for parameterized differentiable components.
///
/// Modules expose their trainable `VarPtr` parameters so optimizers can
/// update them; forward computation happens through free functions in `ag`.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of this module (recursively).
  virtual std::vector<VarPtr> Parameters() const = 0;

  /// Total number of trainable scalars.
  int64_t NumParameters() const;

  /// Zeroes gradients of all parameters.
  void ZeroGrad() const;
};

/// Copies of every parameter value of `modules`, concatenated in module
/// order and, within a module, in Parameters() order — the canonical
/// flat-snapshot layout shared by training checkpoints and the serving
/// loader.
std::vector<Tensor> ParameterValues(
    const std::vector<const Module*>& modules);

/// Assigns a snapshot produced by ParameterValues back onto the same
/// module sequence. Checks count and per-tensor shape.
void AssignParameterValues(const std::vector<const Module*>& modules,
                           const std::vector<Tensor>& values);

/// Affine map y = x W + b with Glorot-uniform weights.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  VarPtr Forward(const VarPtr& x) const;

  /// Inference-only forward at a chosen storage precision. kFp32 is
  /// exactly Forward(x); kInt8 runs the int8 GEMM against the
  /// version-cached packed weight and returns a constant (no autograd
  /// tape — low-precision forwards never train). Weights must be finite
  /// for kInt8 (the serving loader validates checkpoints).
  VarPtr ForwardWithPrecision(const VarPtr& x, Precision precision) const;

  std::vector<VarPtr> Parameters() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  const VarPtr& weight() const { return weight_; }
  const VarPtr& bias() const { return bias_; }

  /// The weight packed into GEMM panels, repacked lazily whenever the
  /// weight's value_version moves (optimizer steps bump it via
  /// mutable_value). Thread-safe; concurrent forwards share one packing.
  std::shared_ptr<const PackedMatrix> GetPackedWeight() const;

  /// The weight quantized per column and packed for the int8 GEMM, behind
  /// the same value_version invalidation as GetPackedWeight.
  std::shared_ptr<const PackedInt8Matrix> GetPackedInt8Weight() const;

 private:
  int64_t in_features_;
  int64_t out_features_;
  VarPtr weight_;  // in×out
  VarPtr bias_;    // 1×out or nullptr

  mutable std::mutex pack_mu_;
  mutable std::shared_ptr<const PackedMatrix> packed_;
  mutable int64_t packed_version_ = -1;
  mutable std::shared_ptr<const PackedInt8Matrix> packed_int8_;
  mutable int64_t packed_int8_version_ = -1;
};

/// Learnable lookup table mapping integer ids to dense rows.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng* rng);

  /// Gathers rows for the given ids (each in [0, num_embeddings)).
  VarPtr Forward(const std::vector<int64_t>& ids) const;

  std::vector<VarPtr> Parameters() const override;

  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  VarPtr table_;
};

/// Learnable row-wise layer normalization (gain/bias over the feature
/// dimension).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  VarPtr Forward(const VarPtr& x) const;

  std::vector<VarPtr> Parameters() const override;

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  VarPtr gain_;
  VarPtr bias_;
};

/// Multi-layer perceptron with ReLU activations between layers and a linear
/// final layer. `dims` = {in, hidden..., out}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int64_t>& dims, Rng* rng, float dropout = 0.0f);

  /// Forward pass; dropout is applied between hidden layers when
  /// `training` is true.
  VarPtr Forward(const VarPtr& x, Rng* rng, bool training) const;

  /// Inference-mode forward.
  VarPtr Forward(const VarPtr& x) const { return Forward(x, nullptr, false); }

  /// Inference-only forward with every Linear at the given precision
  /// (activations between layers stay fp32).
  VarPtr ForwardWithPrecision(const VarPtr& x, Precision precision) const;

  std::vector<VarPtr> Parameters() const override;

  int64_t in_features() const { return layers_.front()->in_features(); }
  int64_t out_features() const { return layers_.back()->out_features(); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  float dropout_;
};

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_NN_H_
