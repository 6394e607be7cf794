#ifndef RELGRAPH_SERVE_INFERENCE_ENGINE_H_
#define RELGRAPH_SERVE_INFERENCE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "gnn/heads.h"
#include "gnn/hetero_sage.h"
#include "pq/engine.h"
#include "sampler/neighbor_sampler.h"
#include "serve/admission_gate.h"
#include "serve/snapshot_shards.h"

namespace relgraph {

/// What the engine does when it cannot answer a request the normal way —
/// the request's deadline expired mid-flight, a serving dependency
/// (sampler, allocation) faulted, or the snapshot-advance circuit breaker
/// has latched the engine into its degraded state.
enum class DegradeMode {
  /// Refuse: DeadlineExceeded / Overloaded / Internal, never a partial
  /// answer. The right mode when callers retry elsewhere.
  kFailFast = 0,
  /// Keep answering the full pipeline from the last healthy snapshot
  /// (stale-but-valid), flagged `degraded` with a staleness figure. Rows
  /// that still cannot be computed (mid-request deadline expiry, faults)
  /// come back NaN.
  kStaleSnapshot,
  /// Answer only what the caches already hold: embedding hits directly,
  /// subgraph hits through the forward; everything needing fresh sampling
  /// comes back NaN. The cheapest mode, and the only one that keeps
  /// answering when the sampler itself is the sick dependency.
  kCacheOnly,
};
const char* DegradeModeName(DegradeMode mode);

/// Engine health state machine: kServing flips to kDegraded when
/// `breaker_threshold` consecutive AdvanceSnapshot failures latch the
/// circuit breaker; the next successful advance resets it.
enum class ServeState {
  kServing = 0,
  kDegraded,
};
const char* ServeStateName(ServeState state);

/// Why a response is flagged degraded (the primary cause when several
/// apply: breaker > deadline > dependency fault).
enum class DegradeReason {
  kNone = 0,
  kDeadline,         ///< request deadline expired mid-flight
  kBreakerOpen,      ///< engine latched degraded by advance failures
  kDependencyFault,  ///< sampler/allocation failure during resolution
};
const char* DegradeReasonName(DegradeReason reason);

/// What Score does with an unknown / out-of-range entity id.
enum class InvalidIdPolicy {
  kReject = 0,  ///< whole request fails with InvalidArgument (default)
  kNanRow,      ///< the row scores NaN; valid rows are served normally
};

/// Per-row outcome markers in ScoreResponse::row_flags.
inline constexpr uint8_t kRowResolved = 0;
inline constexpr uint8_t kRowDegraded = 1;  ///< NaN under the degrade policy
inline constexpr uint8_t kRowInvalid = 2;   ///< NaN from an out-of-range id

/// Knobs of the online inference engine.
struct ServeOptions {
  /// Entities scored per forward pass. Uncached entities are coalesced
  /// into micro-batches of this size so the GEMMs run at batch shapes
  /// instead of row-at-a-time. Has no effect on the scores themselves:
  /// per-seed forwards are bit-identical at any micro-batch composition.
  int64_t micro_batch_size = 32;

  /// Capacity (entries) of the sampled-subgraph LRU cache.
  int64_t subgraph_cache_capacity = 4096;

  /// Capacity (entries) of the entity-embedding LRU cache.
  int64_t embedding_cache_capacity = 8192;

  /// Disable either cache (the engine then recomputes every request).
  /// Scores are bit-identical either way — caching is purely a
  /// throughput optimization.
  bool enable_subgraph_cache = true;
  bool enable_embedding_cache = true;

  /// Shards per cache (rounded up to a power of two). Each entity hashes
  /// to one shard, so concurrent scorers of different entities contend on
  /// different shard mutexes, and snapshot/checkpoint swaps retire the
  /// embedding cache shard-by-shard (epoch publication) instead of
  /// write-locking the world. Pure throughput knob — never affects
  /// scores.
  int64_t cache_shards = 8;

  /// Folded (with the sampler-options fingerprint) into the per-seed
  /// sampling salt. Two engines with equal seed + sampler options sample
  /// identical subgraphs for every entity.
  uint64_t seed = 1;

  /// Numeric precision of the serving forward and embedding cache:
  ///   fp32  exactly today's pipeline (scores byte-equal to the goldens);
  ///   int8  weights packed int8, embeddings cached as symmetric int8.
  /// Overridden by the ServePlan's precision when the engine is built
  /// from a plan, and by the RELGRAPH_PRECISION env var above both (so
  /// chaos/serve lanes can exercise int8 without code changes;
  /// an invalid env value is loudly ignored). In every mode each freshly
  /// computed embedding row is canonicalized through its storage encoding
  /// before use, so cache hits, misses and disabled caches all see
  /// identical bytes.
  Precision precision = Precision::kFp32;

  // ---- resilience ------------------------------------------------------

  /// Admission control: at most `max_inflight` Score calls execute at
  /// once and at most `max_queue` more wait for a slot; beyond that
  /// requests are shed with Status::Overloaded. 0 disables the gate
  /// (every request admitted immediately — the pre-resilience behavior).
  int64_t max_inflight = 0;
  int64_t max_queue = 0;

  /// What to do under expired deadlines, dependency faults, or a latched
  /// breaker. Surfaced in every ScoreResponse's metadata.
  DegradeMode degrade_mode = DegradeMode::kFailFast;

  /// Consecutive AdvanceSnapshot failures that latch the engine into
  /// ServeState::kDegraded (must be >= 1).
  int64_t breaker_threshold = 3;

  /// Unknown-id semantics for ScoreWithOptions (the plain Score(ids)
  /// wrapper always rejects, preserving its documented contract).
  InvalidIdPolicy invalid_id_policy = InvalidIdPolicy::kReject;

  /// Clock behind deadlines, queue-wait measurement and staleness.
  /// nullptr = the process steady clock; tests inject a FakeClock for
  /// deterministic expiry.
  const Clock* clock = nullptr;
};

/// One scoring request: ids plus an execution-policy budget. The default
/// deadline is infinite.
struct ScoreRequest {
  std::vector<int64_t> entity_ids;
  Deadline deadline;
};

/// A scored answer plus the resilience metadata every response carries:
/// how it was produced (state/mode), whether it is degraded and why, and
/// which snapshot version answered. Rows the engine could not resolve
/// under the active policy are NaN (`rows_degraded` counts them);
/// `rows_invalid` counts NaN rows from out-of-range ids under
/// InvalidIdPolicy::kNanRow. `row_flags` marks each row's outcome
/// (kRowResolved / kRowDegraded / kRowInvalid) so scatter layers — the
/// coalescing scheduler in particular — can map per-row fates back to
/// their own callers without parsing NaNs.
struct ScoreResponse {
  std::vector<double> scores;
  std::vector<uint8_t> row_flags;
  bool degraded = false;
  DegradeReason reason = DegradeReason::kNone;
  DegradeMode mode = DegradeMode::kFailFast;
  ServeState state = ServeState::kServing;
  int64_t snapshot_version = 0;
  double staleness_s = 0.0;
  double queue_wait_ms = 0.0;
  int64_t rows_resolved = 0;
  int64_t rows_degraded = 0;
  int64_t rows_invalid = 0;
};

/// Health probe snapshot: the state machine, breaker progress, last
/// recorded error, snapshot staleness, gate occupancy, and the sharding /
/// coalescing picture.
struct ServeHealth {
  ServeState state = ServeState::kServing;
  bool loaded = false;
  int64_t snapshot_version = 0;
  int64_t consecutive_advance_failures = 0;
  std::string last_error;
  double staleness_s = 0.0;
  int64_t inflight = 0;
  int64_t queued = 0;
  int64_t cache_shards = 0;       ///< shards per cache (power of two)
  int64_t shard_swaps = 0;        ///< embedding-cache epoch swaps so far
  int64_t coalesced_batches = 0;  ///< scheduler batches executed here
  int64_t coalesced_rows = 0;     ///< unique rows across those batches
  Precision precision = Precision::kFp32;  ///< resolved serving precision
  /// Snapshot feature residency divided by the snapshot's node count —
  /// the serve_bytes_per_node gauge's current value.
  double bytes_per_node = 0.0;
};

/// Point-in-time cache/traffic statistics of an InferenceEngine.
struct ServeStats {
  int64_t requests = 0;          ///< Score() calls answered
  int64_t entities_scored = 0;   ///< total ids across those calls
  int64_t subgraph_hits = 0;
  int64_t subgraph_misses = 0;
  int64_t embedding_hits = 0;
  int64_t embedding_misses = 0;
  int64_t snapshot_version = 0;
  int64_t shed = 0;               ///< requests rejected Overloaded
  int64_t deadline_exceeded = 0;  ///< requests rejected DeadlineExceeded
  int64_t degraded_answers = 0;   ///< responses flagged degraded
  int64_t shard_swaps = 0;        ///< embedding-cache epoch swaps
  int64_t coalesced_batches = 0;  ///< ScoreForCoalescing executions
  int64_t coalesced_rows = 0;     ///< unique rows across those batches
};

/// Online inference engine for a trained node-level predictive query.
///
/// Loads a GnnNodePredictor checkpoint (SaveWeights format) and answers
/// `Score(entity_ids)` requests: probability for binary tasks, predicted
/// value for regression, argmax class index for multiclass — the same
/// conversions as GnnNodePredictor::PredictScores.
///
/// Request path: each id first probes the entity-embedding cache; misses
/// coalesce into fixed-size micro-batches whose per-seed subgraphs come
/// from the subgraph LRU cache or, on a miss, from the deterministic
/// per-seed sampler (NeighborSampler::SampleForServing). Micro-batch
/// subgraphs concatenate block-diagonally (ConcatSubgraphs — no
/// cross-seed dedup), so every per-seed embedding is a pure function of
/// (engine seed, sampler options, entity id, snapshot) and NEVER of the
/// surrounding batch. That purity is the engine's core guarantee: scores
/// are bit-identical with caches on, off, or partially warm, at any
/// micro-batch size.
///
/// Resilience (see docs/serving.md "Serving resilience"): ScoreWithOptions
/// threads a request deadline through admission, per-seed sampling and
/// per-micro-batch forwards; an optional bounded admission gate sheds
/// excess load with Status::Overloaded; a circuit breaker around
/// AdvanceSnapshot latches the engine into its configured DegradeMode
/// after `breaker_threshold` consecutive failures; HealthStatus() reports
/// the state machine. Degraded answers stay deterministic: with a fake
/// clock and seeded faults, same inputs give bit-identical responses.
///
/// Concurrency — epoch-published snapshots: the snapshot (graph +
/// sampler + cutoff) and the model (weights + heads + label stats) each
/// live behind one published pointer slot (EpochPtr, a shared_ptr whose
/// guard is held only for the refcount bump). A scoring thread pins
/// both with two pointer copies and computes entirely against its pinned
/// state; AdvanceSnapshot / LoadCheckpoint build a complete replacement
/// off to the side and publish it with one pointer swap, so writers
/// never block a request in flight and a reader mid-request keeps its
/// consistent world until it finishes (the retired snapshot drains by
/// refcount). Cache
/// state follows the same discipline: both LRU caches are sharded by
/// entity hash (ShardedLruCache), and invalidation retires shards by
/// publishing fresh ones rather than clearing under a lock. Cache keys
/// carry the snapshot version (and, for embeddings, the checkpoint
/// epoch), so a straggler writing through a retired shard can never
/// pollute a fresh one.
///
/// Snapshots: AdvanceSnapshot publishes a fresher graph of the SAME
/// layout and bumps the snapshot version. Subgraph cache keys carry the
/// version (stale entries age out of the LRU); the embedding cache is
/// epoch-swapped shard by shard. A failed advance — validation failure or
/// injected poison — leaves the previous snapshot fully intact and
/// servable: all checks precede publication.
class InferenceEngine {
 public:
  /// `graph` must outlive the engine; `now_cutoff` is the serving-time
  /// cutoff (one past the snapshot's max event time).
  InferenceEngine(const HeteroGraph* graph, NodeTypeId entity_type,
                  TaskKind kind, int64_t num_classes, const GnnConfig& gnn,
                  const SamplerOptions& sampler_options,
                  Timestamp now_cutoff, const ServeOptions& serve = {});

  /// As above, but shares ownership of the graph epoch: the initial
  /// snapshot keeps `graph` alive for as long as it is current, so a
  /// streaming producer (StreamingDbGraph) may publish newer epochs and
  /// drop its reference without invalidating the engine's snapshot. Use
  /// this overload whenever the graph's lifetime is not lexically wider
  /// than the engine's.
  InferenceEngine(std::shared_ptr<const HeteroGraph> graph,
                  NodeTypeId entity_type, TaskKind kind, int64_t num_classes,
                  const GnnConfig& gnn, const SamplerOptions& sampler_options,
                  Timestamp now_cutoff, const ServeOptions& serve = {});

  /// Convenience: build from a compiled predictive query (see
  /// PredictiveQueryEngine::CompileForServing). `serve.seed` is
  /// overridden by the plan's seed so sampling matches the query.
  InferenceEngine(const ServePlan& plan, const ServeOptions& serve = {});

  /// Restores weights saved by GnnNodePredictor::SaveWeights for the
  /// identical architecture; errors on shape/count mismatch. Builds a
  /// complete fresh model state and publishes it atomically, then
  /// epoch-swaps the embedding cache (old embeddings belong to the old
  /// weights). A failed load leaves the previously loaded weights (if
  /// any) untouched and servable throughout.
  Status LoadCheckpoint(const std::string& path);

  /// Scores the given entity node ids at the current snapshot's "now"
  /// cutoff, with no deadline and strict id validation. Requires a loaded
  /// checkpoint. Safe to call concurrently. Equivalent to
  /// ScoreWithOptions({ids}) under InvalidIdPolicy::kReject, keeping only
  /// the scores.
  Result<std::vector<double>> Score(const std::vector<int64_t>& entity_ids);

  /// Full-policy scoring: admission control, deadline propagation and
  /// graceful degradation, with per-response resilience metadata.
  ///
  /// Outcomes: an OK result whose response is either clean or flagged
  /// `degraded` (NaN rows under the active DegradeMode), or exactly one
  /// of Status::Overloaded (shed at the admission gate, or fail-fast with
  /// the breaker open), Status::DeadlineExceeded (budget exhausted under
  /// kFailFast or before admission), Status::InvalidArgument (bad ids
  /// under kReject), Status::FailedPrecondition (no checkpoint), or
  /// Status::Internal (dependency fault under kFailFast).
  Result<ScoreResponse> ScoreWithOptions(const ScoreRequest& request);

  /// Executes one already-merged batch of rows on behalf of a coalescing
  /// scheduler: one admission-gate pass, one scoring pipeline, always
  /// InvalidIdPolicy::kNanRow (an invalid row must NaN only itself, never
  /// poison the co-batched requests — the scheduler re-applies the
  /// engine's configured policy per member when it scatters). Row scores
  /// are bit-identical to solo ScoreWithOptions calls for the same ids:
  /// that is the per-seed purity contract, and it is what makes
  /// cross-request coalescing invisible to callers.
  Result<ScoreResponse> ScoreForCoalescing(
      const std::vector<int64_t>& entity_ids, const Deadline& deadline);

  /// Pre-populates both caches for the given (e.g. hottest) entities so
  /// the first real requests hit warm. Equivalent to a discarded Score,
  /// except it is not counted in the request/entity traffic stats and
  /// never passes the admission gate.
  Status WarmUp(const std::vector<int64_t>& entity_ids);

  /// Switches to a fresher graph snapshot (same layout — table schema and
  /// FK structure must be unchanged) with a new "now" cutoff. Bumps the
  /// snapshot version, publishes the new snapshot with one pointer swap
  /// (in-flight readers finish on the old one), and epoch-swaps the
  /// embedding cache. On failure the previous snapshot stays fully
  /// servable; `breaker_threshold` consecutive failures latch the engine
  /// into ServeState::kDegraded (reset by the next success).
  Status AdvanceSnapshot(const HeteroGraph* graph, Timestamp now_cutoff);

  /// Streaming snapshot advance: publishes `graph` — a fresher epoch of
  /// the SAME layout, typically StreamingDbGraph's latest — taking shared
  /// ownership (the epoch stays alive while any pinned snapshot
  /// references it), and uses the delta for PRECISE cache invalidation:
  ///
  ///  - `now_cutoff` unchanged: cache entries whose sampled neighborhoods
  ///    avoid every delta-touched node migrate to the new snapshot
  ///    version (same payload, rekeyed), so only entities actually
  ///    affected by the appends re-miss. An embedding entry migrates only
  ///    when its seed's subgraph entry proved untouched — without the
  ///    subgraph's frontier there is no safe way to know what the
  ///    embedding read.
  ///  - `now_cutoff` changed: wholesale invalidation (the per-seed
  ///    sampling stream is keyed by (salt, node, cutoff), so no cached
  ///    result is reusable), exactly like AdvanceSnapshot.
  ///
  /// Precise migration additionally requires an intact delta chain: the
  /// delta's `first_new_node` must equal the current snapshot's per-type
  /// node counts (i.e. it describes the change from exactly the graph
  /// being replaced). A caller that skipped an epoch — e.g. retrying with
  /// only the newest delta after a failed publish — gets wholesale
  /// invalidation instead, so stale cache entries can never survive a
  /// missed delta.
  ///
  /// Same failure/breaker contract as AdvanceSnapshot: validation and the
  /// poison site precede any mutation, a failed apply leaves the previous
  /// snapshot fully servable and counts toward the breaker.
  ///
  /// Migration preserves bit-equality: a migrated subgraph re-samples
  /// identically on the new epoch (untouched adjacency, same cutoff) and
  /// a migrated embedding re-derives identically from it, so scores never
  /// depend on whether invalidation was precise or wholesale.
  Status ApplyDelta(std::shared_ptr<const HeteroGraph> graph,
                    Timestamp now_cutoff, const GraphDelta& delta);

  /// Health probe: state machine, breaker progress, last error, snapshot
  /// staleness, gate occupancy, shard/coalesce counters. Also refreshes
  /// the serve_snapshot_staleness_s gauge.
  ServeHealth HealthStatus() const;

  ServeStats stats() const;

  int64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_relaxed);
  }
  ServeState state() const {
    return static_cast<ServeState>(state_.load(std::memory_order_relaxed));
  }
  Timestamp now_cutoff() const;
  bool loaded() const { return loaded_.load(std::memory_order_acquire); }
  const GnnConfig& gnn_config() const { return gnn_; }
  const ServeOptions& serve_options() const { return serve_; }

  /// The resolved serving precision (options/plan value after the
  /// RELGRAPH_PRECISION env override applied at construction).
  Precision precision() const { return serve_.precision; }

  /// The per-seed sampling salt (engine seed ^ sampler-options
  /// fingerprint). Combined with an entity id and the current cutoff via
  /// ServingSeedFingerprint it keys cross-request subgraph dedup in the
  /// coalescing scheduler.
  uint64_t serving_salt() const { return salt_; }
  const Clock* clock() const { return clock_; }

 private:
  /// One immutable serving world: the graph view, a sampler bound to it,
  /// and the cutoff. Published through `snapshot_`; readers pin it for
  /// the duration of one request and the retired instance drains by
  /// refcount when its last reader finishes.
  struct EngineSnapshot {
    const HeteroGraph* graph = nullptr;
    /// Set by ApplyDelta: keeps the streamed graph epoch alive for the
    /// snapshot's lifetime (constructor/AdvanceSnapshot graphs are
    /// caller-owned and leave this null).
    std::shared_ptr<const HeteroGraph> owned;
    std::unique_ptr<NeighborSampler> sampler;
    Timestamp now_cutoff = 0;
    int64_t version = 0;
  };

  /// One immutable set of model weights (encoder + head + label stats).
  /// Published through `model_`; LoadCheckpoint builds a complete fresh
  /// instance and swaps the pointer, so forwards in flight keep their
  /// weights. `epoch` increments per successful load and is part of the
  /// embedding cache key.
  struct ModelState {
    std::unique_ptr<HeteroSageModel> model;
    std::unique_ptr<ClassificationHead> cls_head;
    std::unique_ptr<ScalarHead> scalar_head;
    double label_mean = 0.0;
    double label_std = 1.0;
    int64_t epoch = 0;
    const Module* head() const {
      return cls_head ? static_cast<const Module*>(cls_head.get())
                      : static_cast<const Module*>(scalar_head.get());
    }
  };

  /// Subgraph cache key. The sampler-options fingerprint is constant per
  /// engine but kept in the key so entries are self-describing; the
  /// snapshot version retires stale entries without a scan.
  struct SubgraphKey {
    int64_t node;
    int64_t version;
    uint64_t fingerprint;
    bool operator==(const SubgraphKey& o) const {
      return node == o.node && version == o.version &&
             fingerprint == o.fingerprint;
    }
  };
  struct SubgraphKeyHash {
    size_t operator()(const SubgraphKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.node) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<uint64_t>(k.version) + (h << 6) + (h >> 2);
      h ^= k.fingerprint + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Embedding cache key: versioned by snapshot AND checkpoint epoch so a
  /// straggler Put from a reader pinned to a retired world lands under a
  /// key no fresh reader will ever look up — lock-free readers make late
  /// writes unavoidable; versioned keys make them harmless.
  struct EmbeddingKey {
    int64_t node;
    int64_t version;
    int64_t model_epoch;
    bool operator==(const EmbeddingKey& o) const {
      return node == o.node && version == o.version &&
             model_epoch == o.model_epoch;
    }
  };
  struct EmbeddingKeyHash {
    size_t operator()(const EmbeddingKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.node) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<uint64_t>(k.version) + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(k.model_epoch) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Shared entry of Score and ScoreWithOptions: admission gate, pin the
  /// published snapshot + model, then the scoring body. `policy` lets the
  /// plain Score wrapper keep strict id validation regardless of the
  /// engine's configured policy.
  Result<ScoreResponse> ScoreGated(const std::vector<int64_t>& entity_ids,
                                   const Deadline& deadline,
                                   InvalidIdPolicy policy);

  /// Scoring body against one pinned snapshot/model pair — the epoch
  /// successor of the old lock-held ScoreLocked. WarmUp passes
  /// `count_request` false so pre-population is not counted as traffic.
  Result<ScoreResponse> ScoreOnSnapshot(const EngineSnapshot& snap,
                                        const ModelState& model,
                                        const std::vector<int64_t>& entity_ids,
                                        const Deadline& deadline,
                                        double queue_wait_ms,
                                        InvalidIdPolicy policy,
                                        bool count_request);

  /// Layout checks of a candidate snapshot against the current one; no
  /// mutation. Caller holds writer_mu_.
  Status ValidateSnapshot(const EngineSnapshot& current,
                          const HeteroGraph* graph) const;

  /// Probes the subgraph cache for one entity at the pinned version.
  bool TryGetCachedSubgraph(const EngineSnapshot& snap, int64_t node,
                            std::shared_ptr<const Subgraph>* out);

  /// Samples (and caches) one entity's subgraph under the deadline;
  /// DeadlineExceeded on expiry, Internal on an injected sampler fault.
  Result<std::shared_ptr<const Subgraph>> SampleSubgraph(
      const EngineSnapshot& snap, int64_t node, const Deadline& deadline);

  /// Embedding rows for one micro-batch of per-seed subgraphs, in part
  /// order ([parts.size() × hidden]).
  Tensor EmbedParts(const EngineSnapshot& snap, const ModelState& model,
                    const std::vector<const Subgraph*>& parts);

  /// Registers a failed advance (caller holds writer_mu_): counts toward
  /// the breaker, latches kDegraded at the threshold, records the error
  /// for HealthStatus().
  void RecordAdvanceFailure(const Status& status);

  /// Delta-precise cache migration (caller holds writer_mu_; same-cutoff
  /// ApplyDelta only): rekeys surviving subgraph entries from
  /// current.version to new_version, then embedding entries whose seeds'
  /// subgraphs survived.
  void MigrateCachesForDelta(const EngineSnapshot& current,
                             int64_t new_version, const GraphDelta& delta);

  void SetLastError(const Status& status);

  double StalenessSeconds() const {
    return static_cast<double>(
               clock_->NowNanos() -
               last_advance_success_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

  std::shared_ptr<const EngineSnapshot> PinSnapshot() const {
    return snapshot_.load();
  }
  std::shared_ptr<const ModelState> PinModel() const {
    return model_.load();
  }

  NodeTypeId entity_type_;
  TaskKind kind_;
  int64_t num_classes_;
  GnnConfig gnn_;
  SamplerOptions sampler_options_;
  ServeOptions serve_;
  uint64_t salt_;  // serve_.seed ^ OptionsFingerprint(sampler_options_)
  const Clock* clock_;
  uint32_t num_shards_;  // power of two
  std::unique_ptr<AdmissionGate> gate_;  // null = admission control off

  /// Epoch-published serving state: readers pin with one pointer copy
  /// each (EpochPtr — the critical section is the refcount bump);
  /// writers (serialized by writer_mu_) build replacements off to the
  /// side and publish with one pointer swap. Nothing here is ever
  /// mutated after publication.
  EpochPtr<const EngineSnapshot> snapshot_;
  EpochPtr<const ModelState> model_;

  /// Serializes LoadCheckpoint/AdvanceSnapshot against each other only —
  /// readers never take it.
  std::mutex writer_mu_;

  std::atomic<bool> loaded_{false};
  std::atomic<int64_t> snapshot_version_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> entities_scored_{0};
  std::atomic<int64_t> coalesced_batches_{0};
  std::atomic<int64_t> coalesced_rows_{0};

  // Resilience state machine (reads are lock-free; writers hold
  // writer_mu_).
  std::atomic<int> state_{static_cast<int>(ServeState::kServing)};
  std::atomic<int64_t> advance_failures_{0};
  std::atomic<int64_t> last_advance_success_ns_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> degraded_answers_{0};
  mutable std::mutex health_mu_;  // guards last_error_ only
  std::string last_error_;

  ShardedLruCache<SubgraphKey, std::shared_ptr<const Subgraph>,
                  SubgraphKeyHash>
      subgraph_cache_;
  /// Values are stored at serve_.precision (EncodedEmbedding): fp32
  /// encodes losslessly, int8 quarters cache residency. The
  /// scoring path canonicalizes every fresh row through Encode→Decode, so
  /// hit and miss rows are byte-identical.
  ShardedLruCache<EmbeddingKey, std::shared_ptr<const EncodedEmbedding>,
                  EmbeddingKeyHash>
      embedding_cache_;
};

}  // namespace relgraph

#endif  // RELGRAPH_SERVE_INFERENCE_ENGINE_H_
