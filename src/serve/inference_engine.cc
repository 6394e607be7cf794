#include "serve/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/timer.h"
#include "core/trace.h"
#include "tensor/serialize.h"

namespace relgraph {

namespace {

// One observation per Score call; runs after the scores are computed so
// instrumentation can never perturb them.
inline void NoteScore(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* latency = MetricsRegistry::Global().GetHistogram(
      "serve_score_latency_ms", FineLatencyBucketsMs());
  latency->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteQueueWait(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* wait = MetricsRegistry::Global().GetHistogram(
      "serve_queue_wait_ms", FineLatencyBucketsMs());
  wait->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteStaleness(double seconds) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Gauge* staleness =
      MetricsRegistry::Global().GetGauge("serve_snapshot_staleness_s");
  staleness->Set(seconds);
#else
  (void)seconds;
#endif
}

inline void NoteShardSwap(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* swap = MetricsRegistry::Global().GetHistogram(
      "serve_shard_swap_ms", FineLatencyBucketsMs());
  swap->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteBytesPerNode(double bytes) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("serve_bytes_per_node");
  gauge->Set(bytes);
#else
  (void)bytes;
#endif
}

// Snapshot feature residency per node — refreshed at every snapshot
// publication and health probe so the gauge tracks quantization savings.
double SnapshotBytesPerNode(const HeteroGraph* graph) {
  const int64_t nodes = graph->TotalNodes();
  if (nodes == 0) return 0.0;
  return static_cast<double>(graph->FeatureBytes()) /
         static_cast<double>(nodes);
}

// RELGRAPH_PRECISION beats the configured (options or plan) precision, so
// CI lanes and operators can flip a serving binary to int8 without a
// code or config change. An invalid value is loudly ignored rather than
// fatal, mirroring RELGRAPH_FAULTS.
Precision ResolvePrecision(Precision configured) {
  const char* env = std::getenv("RELGRAPH_PRECISION");
  if (env == nullptr || *env == '\0') return configured;
  Result<Precision> parsed = ParsePrecision(env);
  if (!parsed.ok()) {
    RELGRAPH_LOG(Error) << "ignoring invalid RELGRAPH_PRECISION: "
                        << parsed.status().message();
    return configured;
  }
  if (parsed.value() != configured) {
    RELGRAPH_LOG(Info) << "serving precision overridden by "
                       << "RELGRAPH_PRECISION: "
                       << PrecisionName(configured) << " -> "
                       << PrecisionName(parsed.value());
  }
  return parsed.value();
}

// Once per process, on the first engine construction: arm fault sites from
// RELGRAPH_FAULTS so unmodified serving binaries can join a chaos run with
// one env var. A malformed spec is loudly ignored rather than fatal — a
// typo'd chaos config must never take down a server that would otherwise
// run clean.
void ArmChaosFromEnvOnce() {
  static const bool armed = [] {
    auto result = FaultInjector::Global().ArmFromEnv();
    if (!result.ok()) {
      RELGRAPH_LOG(Error) << "ignoring malformed RELGRAPH_FAULTS: "
                          << result.status().ToString();
      return false;
    }
    if (result.value() > 0) {
      RELGRAPH_LOG(Info) << "chaos: armed " << result.value()
                         << " fault site(s) from RELGRAPH_FAULTS";
    }
    return result.value() > 0;
  }();
  (void)armed;
}

}  // namespace

const char* DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kFailFast:
      return "fail_fast";
    case DegradeMode::kStaleSnapshot:
      return "stale_snapshot";
    case DegradeMode::kCacheOnly:
      return "cache_only";
  }
  return "unknown";
}

const char* ServeStateName(ServeState state) {
  switch (state) {
    case ServeState::kServing:
      return "serving";
    case ServeState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kDeadline:
      return "deadline";
    case DegradeReason::kBreakerOpen:
      return "breaker_open";
    case DegradeReason::kDependencyFault:
      return "dependency_fault";
  }
  return "unknown";
}

InferenceEngine::InferenceEngine(const HeteroGraph* graph,
                                 NodeTypeId entity_type, TaskKind kind,
                                 int64_t num_classes, const GnnConfig& gnn,
                                 const SamplerOptions& sampler_options,
                                 Timestamp now_cutoff,
                                 const ServeOptions& serve)
    : entity_type_(entity_type),
      kind_(kind),
      num_classes_(num_classes),
      gnn_(gnn),
      sampler_options_(sampler_options),
      serve_(serve),
      salt_(serve.seed ^ OptionsFingerprint(sampler_options)),
      clock_(serve.clock != nullptr ? serve.clock : Clock::Real()),
      num_shards_(RoundUpPow2(static_cast<uint32_t>(
          std::max<int64_t>(1, serve.cache_shards)))),
      subgraph_cache_(serve.subgraph_cache_capacity, num_shards_),
      embedding_cache_(serve.embedding_cache_capacity, num_shards_) {
  ArmChaosFromEnvOnce();
  serve_.precision = ResolvePrecision(serve_.precision);
  RELGRAPH_CHECK(graph != nullptr);
  RELGRAPH_CHECK(kind_ != TaskKind::kRanking)
      << "InferenceEngine serves node-level (scalar) tasks only";
  RELGRAPH_CHECK(static_cast<int64_t>(sampler_options_.fanouts.size()) ==
                 gnn_.num_layers)
      << "sampler depth must match GNN layers";
  RELGRAPH_CHECK(serve_.micro_batch_size > 0);
  RELGRAPH_CHECK(serve_.breaker_threshold >= 1);
  RELGRAPH_CHECK(serve_.max_queue >= 0);
  if (serve_.max_inflight > 0) {
    gate_ = std::make_unique<AdmissionGate>(serve_.max_inflight,
                                            serve_.max_queue, clock_);
  }
  last_advance_success_ns_.store(clock_->NowNanos(),
                                 std::memory_order_relaxed);
  auto snap = std::make_shared<EngineSnapshot>();
  snap->graph = graph;
  snap->sampler = std::make_unique<NeighborSampler>(graph, sampler_options_);
  snap->now_cutoff = now_cutoff;
  snap->version = 0;
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(snap)));
  // Weight init is placeholder — LoadCheckpoint publishes a fresh state.
  auto state = std::make_shared<ModelState>();
  Rng init_rng(serve_.seed);
  state->model = std::make_unique<HeteroSageModel>(graph, gnn_, &init_rng);
  if (kind_ == TaskKind::kMulticlassClassification) {
    state->cls_head = std::make_unique<ClassificationHead>(
        gnn_.hidden_dim, num_classes_, &init_rng);
  } else {
    state->scalar_head =
        std::make_unique<ScalarHead>(gnn_.hidden_dim, &init_rng);
  }
  model_.store(std::shared_ptr<const ModelState>(std::move(state)));
  NoteBytesPerNode(SnapshotBytesPerNode(graph));
}

InferenceEngine::InferenceEngine(std::shared_ptr<const HeteroGraph> graph,
                                 NodeTypeId entity_type, TaskKind kind,
                                 int64_t num_classes, const GnnConfig& gnn,
                                 const SamplerOptions& sampler_options,
                                 Timestamp now_cutoff,
                                 const ServeOptions& serve)
    : InferenceEngine(graph.get(), entity_type, kind, num_classes, gnn,
                      sampler_options, now_cutoff, serve) {
  // Re-publish the initial snapshot with shared ownership of the epoch.
  // Construction is single-threaded, so no reader can hold the plain
  // snapshot the delegated constructor stored.
  const std::shared_ptr<const EngineSnapshot> current = PinSnapshot();
  auto snap = std::make_shared<EngineSnapshot>();
  snap->graph = graph.get();
  snap->owned = std::move(graph);
  snap->sampler =
      std::make_unique<NeighborSampler>(snap->graph, sampler_options_);
  snap->now_cutoff = current->now_cutoff;
  snap->version = current->version;
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(snap)));
}

InferenceEngine::InferenceEngine(const ServePlan& plan,
                                 const ServeOptions& serve)
    : InferenceEngine(plan.graph, plan.entity_type, plan.kind,
                      plan.num_classes, plan.gnn, plan.sampler,
                      plan.now_cutoff, [&] {
                        ServeOptions s = serve;
                        s.seed = plan.seed;
                        s.precision = plan.precision;
                        return s;
                      }()) {}

Status InferenceEngine::LoadCheckpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (FaultInjector::Global().ShouldFire(FaultSite::kServeCheckpointLoad)) {
    Status st = Status::IoError(
        "injected checkpoint load fault (site serve_checkpoint_load): " +
        path);
    SetLastError(st);
    return st;
  }
  RELGRAPH_ASSIGN_OR_RETURN(TensorBundle bundle, LoadTensorBundle(path));
  // Build the replacement off to the side against the current snapshot's
  // graph (layouts are identical across snapshots by the advance
  // contract); in-flight forwards keep the previously published weights.
  const std::shared_ptr<const EngineSnapshot> snap = PinSnapshot();
  const std::shared_ptr<const ModelState> prev = PinModel();
  auto next = std::make_shared<ModelState>();
  Rng init_rng(serve_.seed);
  next->model =
      std::make_unique<HeteroSageModel>(snap->graph, gnn_, &init_rng);
  if (kind_ == TaskKind::kMulticlassClassification) {
    next->cls_head = std::make_unique<ClassificationHead>(
        gnn_.hidden_dim, num_classes_, &init_rng);
  } else {
    next->scalar_head =
        std::make_unique<ScalarHead>(gnn_.hidden_dim, &init_rng);
  }
  const std::vector<Tensor> current =
      ParameterValues({next->model.get(), next->head()});
  if (bundle.tensors.size() != current.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(bundle.tensors.size()) +
        " tensors, serving model has " + std::to_string(current.size()) +
        " (architecture mismatch?)");
  }
  for (size_t i = 0; i < current.size(); ++i) {
    if (!bundle.tensors[i].SameShape(current[i])) {
      return Status::InvalidArgument("checkpoint tensor " +
                                     std::to_string(i) + " shape mismatch");
    }
  }
  if (bundle.scalars.size() != 3) {
    return Status::InvalidArgument("checkpoint scalar block malformed");
  }
  // int8 mode quantizes the weights (per-column max-abs scales);
  // one NaN or inf would poison a whole column's scale, so reject the
  // checkpoint up front with a precise location instead of serving
  // garbage. fp32 mode keeps the historical behavior (no scan).
  if (serve_.precision != Precision::kFp32) {
    for (size_t i = 0; i < bundle.tensors.size(); ++i) {
      const Tensor& t = bundle.tensors[i];
      const float* d = t.data();
      for (int64_t j = 0; j < t.numel(); ++j) {
        if (!std::isfinite(d[j])) {
          return Status::InvalidArgument(
              "checkpoint tensor " + std::to_string(i) +
              " has a non-finite value at flat index " + std::to_string(j) +
              "; " + PrecisionName(serve_.precision) +
              " serving requires finite weights");
        }
      }
    }
  }
  AssignParameterValues({next->model.get(), next->head()}, bundle.tensors);
  next->label_mean = bundle.scalars[0];
  next->label_std = bundle.scalars[1];
  next->epoch = prev->epoch + 1;
  model_.store(std::shared_ptr<const ModelState>(std::move(next)));
  loaded_.store(true, std::memory_order_release);
  // Cached embeddings were produced by the previous weights; their keys
  // carry the old epoch (so they can never be served again) and the
  // epoch swap reclaims the memory. Subgraphs depend only on the sampler
  // and survive a weight swap.
  embedding_cache_.EpochSwap();
  return Status::OK();
}

bool InferenceEngine::TryGetCachedSubgraph(
    const EngineSnapshot& snap, int64_t node,
    std::shared_ptr<const Subgraph>* out) {
  if (!serve_.enable_subgraph_cache) {
    RELGRAPH_COUNTER_INC("serve_subgraph_cache_misses_total");
    return false;
  }
  const SubgraphKey key{node, snap.version,
                        OptionsFingerprint(sampler_options_)};
  if (subgraph_cache_.Get(EntityShard(node, num_shards_), key, out)) {
    RELGRAPH_COUNTER_INC("serve_subgraph_cache_hits_total");
    return true;
  }
  RELGRAPH_COUNTER_INC("serve_subgraph_cache_misses_total");
  return false;
}

Result<std::shared_ptr<const Subgraph>> InferenceEngine::SampleSubgraph(
    const EngineSnapshot& snap, int64_t node, const Deadline& deadline) {
  if (FaultInjector::Global().ShouldFire(FaultSite::kServeSample)) {
    return Status::Internal(
        "injected sampler fault (site serve_sample) for entity " +
        std::to_string(node));
  }
  RELGRAPH_ASSIGN_OR_RETURN(
      Subgraph sg, snap.sampler->SampleForServing(
                       entity_type_, node, snap.now_cutoff, salt_, deadline));
  auto sp = std::make_shared<const Subgraph>(std::move(sg));
  if (serve_.enable_subgraph_cache) {
    const SubgraphKey key{node, snap.version,
                          OptionsFingerprint(sampler_options_)};
    subgraph_cache_.Put(EntityShard(node, num_shards_), key, sp);
  }
  return sp;
}

Tensor InferenceEngine::EmbedParts(const EngineSnapshot& snap,
                                   const ModelState& model,
                                   const std::vector<const Subgraph*>& parts) {
  // Per-seed subgraphs (cached or freshly sampled) concatenate
  // block-diagonally; the encoder forward is then per-row bit-identical
  // to running each seed alone, so batch composition never leaks into a
  // seed's embedding. The forward reads features from the pinned
  // snapshot's graph, never from the (possibly fresher) published one.
  const Subgraph sg = ConcatSubgraphs(snap.graph, parts);
  VarPtr emb = model.model->ForwardOn(snap.graph, sg, entity_type_,
                                      /*rng=*/nullptr, /*training=*/false,
                                      serve_.precision);
  RELGRAPH_CHECK(emb->rows() == static_cast<int64_t>(parts.size()));
  return emb->value();
}

Result<ScoreResponse> InferenceEngine::ScoreOnSnapshot(
    const EngineSnapshot& snap, const ModelState& model,
    const std::vector<int64_t>& entity_ids, const Deadline& deadline,
    double queue_wait_ms, InvalidIdPolicy policy, bool count_request) {
  if (!loaded()) {
    return Status::FailedPrecondition(
        "no checkpoint loaded; call LoadCheckpoint before Score");
  }
  const ServeState state = this->state();
  const bool breaker_open = state == ServeState::kDegraded;
  const DegradeMode mode = serve_.degrade_mode;

  if (breaker_open && mode == DegradeMode::kFailFast) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_shed_total");
    return Status::Overloaded(
        "circuit breaker open (consecutive snapshot-advance failures); "
        "engine configured fail_fast");
  }
  if (deadline.expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired before scoring began");
  }

  ScoreResponse resp;
  resp.mode = mode;
  resp.state = state;
  resp.snapshot_version = snap.version;
  resp.staleness_s = StalenessSeconds();
  resp.queue_wait_ms = queue_wait_ms;

  const int64_t n = static_cast<int64_t>(entity_ids.size());
  if (n == 0) return resp;

  const int64_t num_entities = snap.graph->num_nodes(entity_type_);
  resp.row_flags.assign(static_cast<size_t>(n), kRowResolved);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = entity_ids[static_cast<size_t>(i)];
    if (id < 0 || id >= num_entities) {
      if (policy == InvalidIdPolicy::kReject) {
        return Status::InvalidArgument(
            "entity id " + std::to_string(id) + " out of range [0, " +
            std::to_string(num_entities) + ")");
      }
      resp.row_flags[static_cast<size_t>(i)] = kRowInvalid;
      ++resp.rows_invalid;
    }
  }

  Timer timer;
  const int64_t hidden = gnn_.hidden_dim;
  Tensor emb = Tensor::Zeros(n, hidden);
  // Under an open breaker in cache-only mode, fresh sampling is forbidden:
  // only embedding-cache hits and live-version subgraph-cache hits resolve.
  const bool cache_only = breaker_open && mode == DegradeMode::kCacheOnly;
  bool deadline_nan = false;  // some rows unresolved by deadline expiry

  // Probe the embedding cache; collect distinct uncached ids (a duplicate
  // id in one request is computed once — its embedding is a pure function
  // of the id, so every position gets the identical row).
  std::vector<int64_t> pending;
  std::unordered_map<int64_t, std::vector<int64_t>> rows_of;
  for (int64_t i = 0; i < n; ++i) {
    if (resp.row_flags[static_cast<size_t>(i)] != kRowResolved) continue;
    const int64_t id = entity_ids[static_cast<size_t>(i)];
    if (serve_.enable_embedding_cache) {
      std::shared_ptr<const EncodedEmbedding> row;
      const EmbeddingKey key{id, snap.version, model.epoch};
      if (embedding_cache_.Get(EntityShard(id, num_shards_), key, &row)) {
        RELGRAPH_COUNTER_INC("serve_embedding_cache_hits_total");
        row->Decode(&emb.at(i, 0));
        continue;
      }
      RELGRAPH_COUNTER_INC("serve_embedding_cache_misses_total");
    }
    auto [it, inserted] = rows_of.try_emplace(id);
    if (inserted) pending.push_back(id);
    it->second.push_back(i);
  }

  // Marks every request row of a pending id as policy-NaN.
  auto degrade_id = [&](int64_t id) {
    for (int64_t i : rows_of.at(id)) {
      resp.row_flags[static_cast<size_t>(i)] = kRowDegraded;
    }
  };

  // Coalesce uncached ids into fixed-size micro-batches through the
  // batched (parallel-GEMM) forward path. The deadline is re-checked
  // before every micro-batch and inside every fresh sample; under
  // fail_fast expiry aborts the request, under the degrade modes it
  // NaNs the unresolved remainder and serves what is already paid for.
  size_t p = 0;
  bool out_of_time = false;
  while (p < pending.size() && !out_of_time) {
    if (deadline.expired()) {
      if (mode == DegradeMode::kFailFast) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
        return Status::DeadlineExceeded(
            "deadline expired before micro-batch " +
            std::to_string(p / static_cast<size_t>(serve_.micro_batch_size)));
      }
      for (; p < pending.size(); ++p) degrade_id(pending[p]);
      deadline_nan = true;
      break;
    }

    std::vector<std::shared_ptr<const Subgraph>> held;
    std::vector<const Subgraph*> parts;
    std::vector<int64_t> batch_ids;
    while (p < pending.size() &&
           batch_ids.size() < static_cast<size_t>(serve_.micro_batch_size)) {
      const int64_t id = pending[p];
      std::shared_ptr<const Subgraph> sg;
      if (TryGetCachedSubgraph(snap, id, &sg)) {
        ++p;
        held.push_back(std::move(sg));
        parts.push_back(held.back().get());
        batch_ids.push_back(id);
        continue;
      }
      if (cache_only) {
        degrade_id(id);
        ++p;
        continue;
      }
      Result<std::shared_ptr<const Subgraph>> sampled =
          SampleSubgraph(snap, id, deadline);
      if (sampled.ok()) {
        ++p;
        held.push_back(std::move(sampled).value());
        parts.push_back(held.back().get());
        batch_ids.push_back(id);
        continue;
      }
      if (sampled.status().code() == StatusCode::kDeadlineExceeded) {
        if (mode == DegradeMode::kFailFast) {
          deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
          RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
          return sampled.status();
        }
        for (; p < pending.size(); ++p) degrade_id(pending[p]);
        deadline_nan = true;
        out_of_time = true;
        break;
      }
      // Injected dependency fault.
      if (mode == DegradeMode::kFailFast) return sampled.status();
      degrade_id(id);
      ++p;
    }
    if (batch_ids.empty()) continue;

    if (FaultInjector::Global().ShouldFire(FaultSite::kServeAlloc)) {
      if (mode == DegradeMode::kFailFast) {
        return Status::Internal(
            "injected allocation fault (site serve_alloc)");
      }
      for (int64_t id : batch_ids) degrade_id(id);
      continue;
    }

    const Tensor batch_emb = EmbedParts(snap, model, parts);
    for (size_t j = 0; j < batch_ids.size(); ++j) {
      const int64_t id = batch_ids[j];
      const float* src = batch_emb.data() + static_cast<int64_t>(j) * hidden;
      // Canonicalize every fresh row through its storage encoding before
      // BOTH use and caching: a later cache hit decodes the identical
      // bytes this request saw, so scores stay bit-identical with caches
      // on, off, or partially warm at any precision. fp32 encodes
      // losslessly, keeping that mode byte-equal to the historical path.
      EncodedEmbedding enc =
          EncodedEmbedding::Encode(src, hidden, serve_.precision);
      for (int64_t i : rows_of.at(id)) {
        enc.Decode(&emb.at(i, 0));
      }
      if (serve_.enable_embedding_cache) {
        const EmbeddingKey key{id, snap.version, model.epoch};
        embedding_cache_.Put(
            EntityShard(id, num_shards_), key,
            std::make_shared<const EncodedEmbedding>(std::move(enc)));
      }
    }
  }

  if (deadline.expired() && mode == DegradeMode::kFailFast) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired before head forward");
  }

  // One head forward over the assembled embeddings; the head MLP is
  // row-wise, so each score is still a pure per-entity function.
  // Unresolved rows hold zero embeddings here and are overwritten with
  // NaN below — they can never influence a resolved row.
  VarPtr out =
      model.cls_head
          ? model.cls_head->ForwardWithPrecision(ag::Constant(emb),
                                                 serve_.precision)
          : model.scalar_head->ForwardWithPrecision(ag::Constant(emb),
                                                    serve_.precision);
  resp.scores.reserve(static_cast<size_t>(n));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t r = 0; r < n; ++r) {
    if (resp.row_flags[static_cast<size_t>(r)] != kRowResolved) {
      resp.scores.push_back(nan);
      if (resp.row_flags[static_cast<size_t>(r)] == kRowDegraded) {
        ++resp.rows_degraded;
      }
      continue;
    }
    switch (kind_) {
      case TaskKind::kBinaryClassification:
        resp.scores.push_back(1.0 /
                              (1.0 + std::exp(-out->value().at(r, 0))));
        break;
      case TaskKind::kRegression:
        resp.scores.push_back(out->value().at(r, 0) * model.label_std +
                              model.label_mean);
        break;
      case TaskKind::kMulticlassClassification: {
        int64_t arg = 0;
        for (int64_t c = 1; c < out->cols(); ++c) {
          if (out->value().at(r, c) > out->value().at(r, arg)) arg = c;
        }
        resp.scores.push_back(static_cast<double>(arg));
        break;
      }
      case TaskKind::kRanking:
        break;
    }
  }
  resp.rows_resolved = n - resp.rows_degraded - resp.rows_invalid;
  resp.degraded = breaker_open || resp.rows_degraded > 0;
  if (resp.degraded) {
    resp.reason = breaker_open      ? DegradeReason::kBreakerOpen
                  : deadline_nan    ? DegradeReason::kDeadline
                                    : DegradeReason::kDependencyFault;
    degraded_answers_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_degraded_answers_total");
    RELGRAPH_COUNTER_ADD("serve_degraded_rows_total", resp.rows_degraded);
  }
  if (count_request) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    entities_scored_.fetch_add(n, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_requests_total");
    RELGRAPH_COUNTER_ADD("serve_entities_scored_total", n);
  }
  NoteScore(timer.Millis());
  NoteStaleness(resp.staleness_s);
  return resp;
}

Result<ScoreResponse> InferenceEngine::ScoreGated(
    const std::vector<int64_t>& entity_ids, const Deadline& deadline,
    InvalidIdPolicy policy) {
  AdmissionTicket ticket(gate_.get(), deadline);
  if (!ticket.admitted()) {
    if (ticket.outcome() == AdmissionGate::Outcome::kShedQueueFull) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      RELGRAPH_COUNTER_INC("serve_shed_total");
      return Status::Overloaded(
          "admission queue full (max_inflight=" +
          std::to_string(serve_.max_inflight) +
          ", max_queue=" + std::to_string(serve_.max_queue) + ")");
    }
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired in admission queue");
  }
  RELGRAPH_COUNTER_INC("serve_admitted_total");
  if (gate_ != nullptr) NoteQueueWait(ticket.queue_wait_ms());
  // Pin the published world: two atomic loads, no reader lock. A writer
  // publishing mid-request never perturbs this request — it finishes on
  // its pinned snapshot and the retired state drains by refcount.
  const std::shared_ptr<const EngineSnapshot> snap = PinSnapshot();
  const std::shared_ptr<const ModelState> model = PinModel();
  return ScoreOnSnapshot(*snap, *model, entity_ids, deadline,
                         ticket.queue_wait_ms(), policy,
                         /*count_request=*/true);
  // snap/model release before ~ticket returns the gate slot.
}

Result<std::vector<double>> InferenceEngine::Score(
    const std::vector<int64_t>& entity_ids) {
  RELGRAPH_TRACE_SPAN("serve/score");
  // No deadline, strict id validation: the original serving contract.
  RELGRAPH_ASSIGN_OR_RETURN(
      ScoreResponse resp,
      ScoreGated(entity_ids, Deadline(), InvalidIdPolicy::kReject));
  return std::move(resp.scores);
}

Result<ScoreResponse> InferenceEngine::ScoreWithOptions(
    const ScoreRequest& request) {
  RELGRAPH_TRACE_SPAN("serve/score");
  return ScoreGated(request.entity_ids, request.deadline,
                    serve_.invalid_id_policy);
}

Result<ScoreResponse> InferenceEngine::ScoreForCoalescing(
    const std::vector<int64_t>& entity_ids, const Deadline& deadline) {
  RELGRAPH_TRACE_SPAN("serve/score_coalesced");
  // Always kNanRow: an invalid row must NaN itself only — the scheduler
  // translates invalid rows back into each member's outcome under the
  // engine's configured policy.
  Result<ScoreResponse> result =
      ScoreGated(entity_ids, deadline, InvalidIdPolicy::kNanRow);
  if (result.ok()) {
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    coalesced_rows_.fetch_add(static_cast<int64_t>(entity_ids.size()),
                              std::memory_order_relaxed);
  }
  return result;
}

Status InferenceEngine::WarmUp(const std::vector<int64_t>& entity_ids) {
  RELGRAPH_TRACE_SPAN("serve/warmup");
  RELGRAPH_COUNTER_ADD("serve_warmup_entities_total",
                       static_cast<int64_t>(entity_ids.size()));
  const std::shared_ptr<const EngineSnapshot> snap = PinSnapshot();
  const std::shared_ptr<const ModelState> model = PinModel();
  RELGRAPH_ASSIGN_OR_RETURN(
      ScoreResponse ignored,
      ScoreOnSnapshot(*snap, *model, entity_ids, Deadline(),
                      /*queue_wait_ms=*/0.0, InvalidIdPolicy::kReject,
                      /*count_request=*/false));
  (void)ignored;
  return Status::OK();
}

Status InferenceEngine::ValidateSnapshot(const EngineSnapshot& current,
                                         const HeteroGraph* graph) const {
  if (graph == nullptr) {
    return Status::InvalidArgument("AdvanceSnapshot: null graph");
  }
  const HeteroGraph* base = current.graph;
  if (graph->num_node_types() != base->num_node_types() ||
      graph->num_edge_types() != base->num_edge_types()) {
    return Status::InvalidArgument(
        "AdvanceSnapshot: snapshot layout mismatch (type counts)");
  }
  for (EdgeTypeId e = 0; e < graph->num_edge_types(); ++e) {
    if (graph->edge_src_type(e) != base->edge_src_type(e) ||
        graph->edge_dst_type(e) != base->edge_dst_type(e)) {
      return Status::InvalidArgument(
          "AdvanceSnapshot: snapshot layout mismatch (edge endpoints)");
    }
  }
  for (int32_t t = 0; t < graph->num_node_types(); ++t) {
    if (graph->feature_dim(t) != base->feature_dim(t)) {
      return Status::InvalidArgument(
          "AdvanceSnapshot: snapshot layout mismatch (feature widths)");
    }
  }
  return Status::OK();
}

Status InferenceEngine::AdvanceSnapshot(const HeteroGraph* graph,
                                        Timestamp now_cutoff) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const EngineSnapshot> current = PinSnapshot();
  Status st = ValidateSnapshot(*current, graph);
  // The poison site fires after validation and before ANY mutation, so an
  // injected failure exercises exactly the atomicity contract: the
  // previous snapshot must remain fully published and servable.
  if (st.ok() &&
      FaultInjector::Global().ShouldFire(FaultSite::kServeSnapshotAdvance)) {
    st = Status::Internal(
        "injected snapshot poison (site serve_snapshot_advance)");
  }
  if (!st.ok()) {
    RecordAdvanceFailure(st);
    return st;
  }
  // Build the complete replacement off to the side, then publish with one
  // pointer swap. Readers pinned to the old snapshot finish against it;
  // new requests see the new world immediately.
  auto next = std::make_shared<EngineSnapshot>();
  next->graph = graph;
  next->sampler = std::make_unique<NeighborSampler>(graph, sampler_options_);
  next->now_cutoff = now_cutoff;
  next->version = current->version + 1;
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(next)));
  snapshot_version_.fetch_add(1, std::memory_order_relaxed);
  // Old-version subgraph keys can no longer match; the LRU ages them out.
  // Embedding entries carry the retired version in their keys — the
  // per-shard epoch swap reclaims them without blocking readers.
  {
    Timer swap_timer;
    embedding_cache_.EpochSwap();
    NoteShardSwap(swap_timer.Millis());
    RELGRAPH_COUNTER_INC("serve_shard_swaps_total");
  }
  // A successful advance closes the breaker and resets staleness.
  advance_failures_.store(0, std::memory_order_relaxed);
  state_.store(static_cast<int>(ServeState::kServing),
               std::memory_order_relaxed);
  last_advance_success_ns_.store(clock_->NowNanos(),
                                 std::memory_order_relaxed);
  SetLastError(Status::OK());
  RELGRAPH_COUNTER_INC("serve_snapshot_advances_total");
  NoteStaleness(0.0);
  NoteBytesPerNode(SnapshotBytesPerNode(graph));
  return Status::OK();
}

void InferenceEngine::MigrateCachesForDelta(const EngineSnapshot& current,
                                            int64_t new_version,
                                            const GraphDelta& delta) {
  Timer migrate_timer;
  // Touched-node lookup per type. New nodes (>= first_new_node) cannot
  // appear in pre-delta cache entries, so only the touched sets matter.
  std::vector<std::unordered_set<int64_t>> touched(delta.touched.size());
  for (size_t t = 0; t < delta.touched.size(); ++t) {
    touched[t].insert(delta.touched[t].begin(), delta.touched[t].end());
  }

  // A cached subgraph survives iff no node it ever read gained adjacency.
  // The deepest frontier contains every node of the subgraph (each
  // frontier is a prefix of the next), so scanning it alone is exact.
  auto survives = [&touched](const Subgraph& sg) {
    if (sg.frontiers.empty()) return true;
    const Subgraph::Frontier& deepest = sg.frontiers.back();
    const size_t types = std::min(deepest.nodes.size(), touched.size());
    for (size_t t = 0; t < types; ++t) {
      if (touched[t].empty()) continue;
      for (int64_t node : deepest.nodes[t]) {
        if (touched[t].count(node)) return false;
      }
    }
    return true;
  };

  const uint64_t fp = OptionsFingerprint(sampler_options_);
  std::unordered_set<int64_t> surviving_seeds;
  int64_t kept_subgraphs = 0, kept_embeddings = 0;
  if (serve_.enable_subgraph_cache) {
    subgraph_cache_.MigrateShards(
        [&](const SubgraphKey& key,
            const std::shared_ptr<const Subgraph>& value,
            SubgraphKey* new_key) {
          if (key.version != current.version || key.fingerprint != fp) {
            return false;  // stale epoch: drop, as EpochSwap would
          }
          if (!survives(*value)) return false;
          surviving_seeds.insert(key.node);
          *new_key = SubgraphKey{key.node, new_version, key.fingerprint};
          ++kept_subgraphs;
          return true;
        });
  }
  if (serve_.enable_embedding_cache) {
    const std::shared_ptr<const ModelState> model = PinModel();
    const int64_t model_epoch = model->epoch;
    embedding_cache_.MigrateShards(
        [&](const EmbeddingKey& key,
            const std::shared_ptr<const EncodedEmbedding>& value,
            EmbeddingKey* new_key) {
          (void)value;
          if (key.version != current.version ||
              key.model_epoch != model_epoch) {
            return false;
          }
          // Only embeddings whose seed's subgraph provably avoided the
          // delta are safe to keep: the forward read exactly that
          // frontier's features and degrees.
          if (surviving_seeds.count(key.node) == 0) return false;
          *new_key = EmbeddingKey{key.node, new_version, key.model_epoch};
          ++kept_embeddings;
          return true;
        });
  }
  RELGRAPH_COUNTER_ADD("serve_delta_migrated_subgraphs_total",
                       kept_subgraphs);
  RELGRAPH_COUNTER_ADD("serve_delta_migrated_embeddings_total",
                       kept_embeddings);
  NoteShardSwap(migrate_timer.Millis());
}

Status InferenceEngine::ApplyDelta(std::shared_ptr<const HeteroGraph> graph,
                                   Timestamp now_cutoff,
                                   const GraphDelta& delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const EngineSnapshot> current = PinSnapshot();
  Status st = ValidateSnapshot(*current, graph.get());
  // Same poison point as AdvanceSnapshot: after validation, before any
  // mutation — a failed delta apply leaves the previous snapshot fully
  // published and servable, and counts toward the breaker.
  if (st.ok() &&
      FaultInjector::Global().ShouldFire(FaultSite::kServeSnapshotAdvance)) {
    st = Status::Internal(
        "injected snapshot poison (site serve_snapshot_advance)");
  }
  if (!st.ok()) {
    RecordAdvanceFailure(st);
    return st;
  }
  auto next = std::make_shared<EngineSnapshot>();
  next->graph = graph.get();
  next->owned = std::move(graph);
  next->sampler =
      std::make_unique<NeighborSampler>(next->graph, sampler_options_);
  next->now_cutoff = now_cutoff;
  next->version = current->version + 1;

  const bool same_cutoff = now_cutoff == current->now_cutoff;
  // The delta only licenses precise invalidation when it describes the
  // change from THIS engine's current snapshot: its per-type base counts
  // must match the graph being replaced. A caller that skipped an epoch
  // (say, after a failed publish) and passes only the newest delta would
  // otherwise keep entries the missed delta invalidated — fall back to
  // wholesale invalidation instead of serving stale cache state.
  bool chain_intact =
      delta.first_new_node.size() ==
      static_cast<size_t>(current->graph->num_node_types());
  for (NodeTypeId t = 0; chain_intact && t < current->graph->num_node_types();
       ++t) {
    chain_intact = delta.first_new_node[t] == current->graph->num_nodes(t);
  }
  const bool precise = same_cutoff && chain_intact;
  if (precise) {
    // Precise invalidation: migrate untouched entries to the new version
    // BEFORE publication, so the first reader of the new snapshot already
    // sees the warm survivors.
    MigrateCachesForDelta(*current, next->version, delta);
  }
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(next)));
  snapshot_version_.fetch_add(1, std::memory_order_relaxed);
  if (!precise) {
    // Cutoff moved (every per-seed sampling stream changed) or the delta
    // chain broke: nothing is provably reusable — wholesale epoch swap,
    // exactly like AdvanceSnapshot.
    Timer swap_timer;
    embedding_cache_.EpochSwap();
    NoteShardSwap(swap_timer.Millis());
    RELGRAPH_COUNTER_INC("serve_shard_swaps_total");
  }
  advance_failures_.store(0, std::memory_order_relaxed);
  state_.store(static_cast<int>(ServeState::kServing),
               std::memory_order_relaxed);
  last_advance_success_ns_.store(clock_->NowNanos(),
                                 std::memory_order_relaxed);
  SetLastError(Status::OK());
  RELGRAPH_COUNTER_INC("serve_snapshot_advances_total");
  RELGRAPH_COUNTER_INC("serve_delta_advances_total");
  NoteStaleness(0.0);
  NoteBytesPerNode(SnapshotBytesPerNode(PinSnapshot()->graph));
  return Status::OK();
}

void InferenceEngine::RecordAdvanceFailure(const Status& status) {
  const int64_t failures =
      advance_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  RELGRAPH_COUNTER_INC("serve_snapshot_advance_failures_total");
  SetLastError(status);
  if (failures >= serve_.breaker_threshold &&
      state_.load(std::memory_order_relaxed) !=
          static_cast<int>(ServeState::kDegraded)) {
    state_.store(static_cast<int>(ServeState::kDegraded),
                 std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_breaker_open_total");
  }
}

void InferenceEngine::SetLastError(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  last_error_ = status.ok() ? std::string() : status.ToString();
}

ServeHealth InferenceEngine::HealthStatus() const {
  ServeHealth h;
  h.state = state();
  h.loaded = loaded();
  h.snapshot_version = snapshot_version_.load(std::memory_order_relaxed);
  h.consecutive_advance_failures =
      advance_failures_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    h.last_error = last_error_;
  }
  h.staleness_s = StalenessSeconds();
  if (gate_ != nullptr) {
    h.inflight = gate_->inflight();
    h.queued = gate_->queued();
  }
  h.cache_shards = static_cast<int64_t>(num_shards_);
  h.shard_swaps = embedding_cache_.swaps();
  h.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  h.coalesced_rows = coalesced_rows_.load(std::memory_order_relaxed);
  h.precision = serve_.precision;
  h.bytes_per_node = SnapshotBytesPerNode(PinSnapshot()->graph);
  NoteStaleness(h.staleness_s);
  NoteBytesPerNode(h.bytes_per_node);
  return h;
}

ServeStats InferenceEngine::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.entities_scored = entities_scored_.load(std::memory_order_relaxed);
  s.subgraph_hits = subgraph_cache_.hits();
  s.subgraph_misses = subgraph_cache_.misses();
  s.embedding_hits = embedding_cache_.hits();
  s.embedding_misses = embedding_cache_.misses();
  s.snapshot_version = snapshot_version_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded_answers = degraded_answers_.load(std::memory_order_relaxed);
  s.shard_swaps = embedding_cache_.swaps();
  s.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  s.coalesced_rows = coalesced_rows_.load(std::memory_order_relaxed);
  return s;
}

Timestamp InferenceEngine::now_cutoff() const {
  return PinSnapshot()->now_cutoff;
}

}  // namespace relgraph
