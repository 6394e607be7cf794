#include "tensor/nn.h"

#include "core/logging.h"
#include "tensor/init.h"

namespace relgraph {

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& p : Parameters()) n += p->value().numel();
  return n;
}

void Module::ZeroGrad() const {
  for (const auto& p : Parameters()) p->ZeroGrad();
}

std::vector<Tensor> ParameterValues(
    const std::vector<const Module*>& modules) {
  std::vector<Tensor> values;
  for (const Module* m : modules) {
    RELGRAPH_CHECK(m != nullptr);
    for (const auto& p : m->Parameters()) values.push_back(p->value());
  }
  return values;
}

void AssignParameterValues(const std::vector<const Module*>& modules,
                           const std::vector<Tensor>& values) {
  size_t i = 0;
  for (const Module* m : modules) {
    RELGRAPH_CHECK(m != nullptr);
    for (const auto& p : m->Parameters()) {
      RELGRAPH_CHECK(i < values.size())
          << "parameter snapshot too short: " << values.size() << " tensors";
      RELGRAPH_CHECK(values[i].SameShape(p->value()))
          << "parameter snapshot tensor " << i << " shape mismatch";
      p->mutable_value() = values[i++];
    }
  }
  RELGRAPH_CHECK(i == values.size())
      << "parameter snapshot has " << values.size() - i << " extra tensors";
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  RELGRAPH_CHECK(in_features > 0 && out_features > 0);
  weight_ = ag::Param(GlorotUniform(in_features, out_features, rng));
  if (bias) bias_ = ag::Param(Tensor::Zeros(1, out_features));
}

VarPtr Linear::Forward(const VarPtr& x) const {
  RELGRAPH_CHECK(x->cols() == in_features_)
      << "Linear expected " << in_features_ << " features, got " << x->cols();
  VarPtr y = ag::MatMulPacked(x, GetPackedWeight(), weight_);
  if (bias_) y = ag::AddBias(y, bias_);
  return y;
}

std::shared_ptr<const PackedMatrix> Linear::GetPackedWeight() const {
  std::lock_guard<std::mutex> lock(pack_mu_);
  const int64_t v = weight_->value_version();
  if (packed_ == nullptr || packed_version_ != v) {
    packed_ = std::make_shared<const PackedMatrix>(
        PackForMatMul(weight_->value()));
    packed_version_ = v;
  }
  return packed_;
}

std::shared_ptr<const PackedInt8Matrix> Linear::GetPackedInt8Weight() const {
  std::lock_guard<std::mutex> lock(pack_mu_);
  const int64_t v = weight_->value_version();
  if (packed_int8_ == nullptr || packed_int8_version_ != v) {
    Result<PackedInt8Matrix> pm = PackForMatMulInt8(weight_->value());
    RELGRAPH_CHECK(pm.ok()) << "int8 weight packing failed: "
                            << pm.status().message();
    packed_int8_ = std::make_shared<const PackedInt8Matrix>(
        std::move(pm).value());
    packed_int8_version_ = v;
  }
  return packed_int8_;
}

VarPtr Linear::ForwardWithPrecision(const VarPtr& x,
                                    Precision precision) const {
  if (precision == Precision::kFp32) return Forward(x);
  RELGRAPH_CHECK(x->cols() == in_features_)
      << "Linear expected " << in_features_ << " features, got " << x->cols();
  VarPtr out =
      ag::Constant(MatMulInt8(x->value(), *GetPackedInt8Weight()));
  if (bias_) out = ag::AddBias(out, bias_);
  return out;
}

std::vector<VarPtr> Linear::Parameters() const {
  std::vector<VarPtr> ps = {weight_};
  if (bias_) ps.push_back(bias_);
  return ps;
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng* rng)
    : num_embeddings_(num_embeddings), dim_(dim) {
  RELGRAPH_CHECK(num_embeddings > 0 && dim > 0);
  table_ = ag::Param(NormalInit(num_embeddings, dim, 0.1f, rng));
}

VarPtr Embedding::Forward(const std::vector<int64_t>& ids) const {
  return ag::GatherRows(table_, ids);
}

std::vector<VarPtr> Embedding::Parameters() const { return {table_}; }

LayerNorm::LayerNorm(int64_t dim) : dim_(dim) {
  RELGRAPH_CHECK(dim > 0);
  gain_ = ag::Param(Tensor::Ones(1, dim));
  bias_ = ag::Param(Tensor::Zeros(1, dim));
}

VarPtr LayerNorm::Forward(const VarPtr& x) const {
  return ag::LayerNorm(x, gain_, bias_);
}

std::vector<VarPtr> LayerNorm::Parameters() const { return {gain_, bias_}; }

Mlp::Mlp(const std::vector<int64_t>& dims, Rng* rng, float dropout)
    : dropout_(dropout) {
  RELGRAPH_CHECK(dims.size() >= 2) << "Mlp needs at least in/out dims";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

VarPtr Mlp::Forward(const VarPtr& x, Rng* rng, bool training) const {
  VarPtr h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) {
      h = ag::Relu(h);
      if (training && dropout_ > 0.0f) {
        h = ag::Dropout(h, dropout_, rng, true);
      }
    }
  }
  return h;
}

VarPtr Mlp::ForwardWithPrecision(const VarPtr& x, Precision precision) const {
  if (precision == Precision::kFp32) return Forward(x);
  VarPtr h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->ForwardWithPrecision(h, precision);
    if (i + 1 < layers_.size()) h = ag::Relu(h);
  }
  return h;
}

std::vector<VarPtr> Mlp::Parameters() const {
  std::vector<VarPtr> ps;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->Parameters()) ps.push_back(p);
  }
  return ps;
}

}  // namespace relgraph
