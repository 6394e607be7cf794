// The serving workloads.
//
// serve_cold   2 clients call InferenceEngine::ScoreWithOptions with ids
//              drawn uniformly from a user population about four times
//              the embedding cache, so most rows miss every cache. No
//              coalescer, no writes.
// serve_mixed  2 clients send Zipf(1.1) reads over 8,000 users through a
//              CoalescingScheduler with the default caches (which hold them
//              all), while 1 writer appends seeded
//              order batches at a fixed rate through StreamingDbGraph::Apply
//              and InferenceEngine::ApplyDelta.
//
// Both run three rounds of a closed-loop phase (rows_per_s) and an
// open-loop phase at one fixed offered rate (latencies, timed from each
// request's due time).
// Every response is checked after the timed phases, bit for bit, against a
// cache-off solo engine at the snapshot version that answered it.
//
// The traced run adds a single-threaded cold replay: each request is
// scored by the cache-off engine and then rebuilt from the checkpoint
// through the public sampler, subgraph-concat, model and head calls under
// spans. The rebuilt scores must equal the engine's bit for bit.

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/buffer_pool.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "datagen/ecommerce.h"
#include "db2graph/streaming.h"
#include "gnn/heads.h"
#include "gnn/hetero_sage.h"
#include "pq/analyzer.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "sampler/neighbor_sampler.h"
#include "serve/coalescing_scheduler.h"
#include "serve/inference_engine.h"
#include "tensor/autograd.h"
#include "tensor/nn.h"
#include "tensor/serialize.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace relbench {
namespace {

using namespace relgraph;
using Clock = std::chrono::steady_clock;

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";
constexpr int64_t kIdsPerRequest = 16;
constexpr double kZipfAlpha = 1.1;
constexpr int64_t kOrdersPerDelta = 8;
constexpr double kGeneratorLateLimitMs = 2.0;

struct ServeSize {
  int64_t users;
  int64_t products;
  int64_t horizon_days;
  int64_t train_rows;      // serving model: training rows (1 epoch)
  int64_t eval_rows;       // held-out rows for the served model's AUC
  int64_t replay_requests; // traced cold replay
};

/// serve_cold's population is about four times the embedding cache, so
/// most rows miss; serve_mixed's 8,000 users fit in it, so reads hit unless
/// a write invalidated them, and each append copies a smaller graph.
ServeSize SizeFor(bool smoke, bool mixed) {
  if (smoke) return {1200, 60, 120, 300, 300, 20};
  if (mixed) return {8000, 400, 180, 4000, 4000, 300};
  return {32000, 1600, 180, 4000, 4000, 300};
}

/// One serving workload's fixed shape. Two readers leave the 4-vCPU host
/// room for the generator, the writer and the host's own work; with four,
/// other tenants' load moved closed-loop throughput by up to 40% between
/// runs. The offered rates are fixed here, at about a quarter (serve_cold)
/// and a fifth (serve_mixed) of what the closed loop sustained when the
/// benchmark was defined; they are never recalibrated per commit. Nearer
/// capacity, a host slowdown of a fifth doubled the p90. At 5 writes/s
/// serve_mixed's p90 fell on requests beside an apply and swung with the
/// host's speed; at 2/s it reads the read path.
struct Shape {
  bool mixed;
  int readers;
  double offered_rps;      // open-loop phase
  double deltas_per_s;     // writer (serve_mixed only)
};

Shape ShapeFor(const std::string& workload, bool smoke) {
  if (workload == "serve_cold") return {false, 2, smoke ? 100.0 : 400.0, 0};
  return {true, 2, smoke ? 100.0 : 600.0, 2.0};
}

GnnConfig ModelConfig() { return GnnConfig{}; }  // USING GNN defaults

SamplerOptions SamplerConfig() {
  SamplerOptions s;
  s.fanouts = {10, 10};  // USING GNN default fanout per layer
  return s;
}

// The database, the popularity order of its users and the served model
// are the same for every run seed (generator seeds move the order volume
// by up to a quarter); the run seed draws the requests, the writes and the
// arrivals.
constexpr uint64_t kDatabaseSeed = 101;

ECommerceConfig DbConfig(const ServeSize& size) {
  ECommerceConfig cfg;
  cfg.num_users = size.users;
  cfg.num_products = size.products;
  cfg.num_categories = 12;
  cfg.horizon_days = size.horizon_days;
  cfg.seed = kDatabaseSeed;
  return cfg;
}

// ------------------------------------------------------------------ world

/// Everything set-up builds: data, graph, served model, engines and the
/// version-0 reference scores.
struct World {
  std::unique_ptr<Database> db;
  std::unique_ptr<StreamingDbGraph> stream;
  std::shared_ptr<const HeteroGraph> base;  // version-0 graph epoch
  NodeTypeId users = 0;
  Timestamp now = 0;
  std::string ckpt;
  std::unique_ptr<InferenceEngine> engine;     // under test
  std::unique_ptr<InferenceEngine> reference;  // caches off, solo
  std::vector<double> ref_scores;              // version 0, every user
  double test_auc = 0.0;
  int64_t training_rows = 0;
  int64_t prefetch_stalls = 0;
};

ServeOptions EngineOptions(bool caches) {
  ServeOptions s;  // default capacities, micro-batch 32, fail-fast
  s.enable_subgraph_cache = caches;
  s.enable_embedding_cache = caches;
  return s;
}

/// Scores `ids` on `engine` with `threads` concurrent callers; returns the
/// scores in id order, or an empty vector on any failure.
std::vector<double> ScoreAll(InferenceEngine* engine,
                             const std::vector<int64_t>& ids, int threads) {
  std::vector<double> out(ids.size());
  std::atomic<bool> ok{true};
  std::atomic<size_t> next{0};
  constexpr size_t kChunk = 256;
  auto work = [&] {
    for (;;) {
      const size_t begin = next.fetch_add(kChunk);
      if (begin >= ids.size()) return;
      const size_t end = std::min(ids.size(), begin + kChunk);
      std::vector<int64_t> chunk(ids.begin() + begin, ids.begin() + end);
      auto scores = engine->Score(chunk);
      if (!scores.ok()) {
        ok = false;
        return;
      }
      std::copy(scores.value().begin(), scores.value().end(),
                out.begin() + begin);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (!ok) out.clear();
  return out;
}

Status BuildWorld(const RunOptions& opts, const ServeSize& size, World* w) {
  {
    ScopedSpan span("datagen.ecommerce");
    w->db = std::make_unique<Database>(
        MakeECommerceDb(DbConfig(size)));
  }
  w->now = w->db->TimeRange().second + 1;
  {
    ScopedSpan span("db2graph.build");
    RELGRAPH_ASSIGN_OR_RETURN(w->stream, StreamingDbGraph::Create(w->db.get()));
  }
  w->base = w->stream->graph();
  w->users = w->stream->table_type().at("users");

  // Label the serving query and train the served model on a seeded subset
  // (one epoch): serving cost depends on the architecture, not on how long
  // the model trained.
  TrainingTable table;
  Split split;
  {
    ScopedSpan span("pq.label_build");
    RELGRAPH_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(kQuery));
    RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, AnalyzeQuery(parsed, *w->db));
    RELGRAPH_ASSIGN_OR_RETURN(auto cutoffs, MakeCutoffs(rq, *w->db));
    RELGRAPH_ASSIGN_OR_RETURN(table,
                              BuildTrainingTable(rq, *w->db, cutoffs));
    RELGRAPH_ASSIGN_OR_RETURN(split, MakeSplit(rq, table, cutoffs));
  }
  w->training_rows = static_cast<int64_t>(table.entity_rows.size());
  // The served model is the same for every run seed, so its held-out AUC
  // is a pure function of the code.
  Rng pick(kDatabaseSeed);
  auto subset = [&pick](const std::vector<int64_t>& from, int64_t n) {
    std::vector<int64_t> out;
    const int64_t k = std::min<int64_t>(n, static_cast<int64_t>(from.size()));
    for (int64_t i :
         pick.SampleWithoutReplacement(static_cast<int64_t>(from.size()), k)) {
      out.push_back(from[static_cast<size_t>(i)]);
    }
    return out;
  };
  Split fit_split;
  fit_split.train = subset(split.train, size.train_rows);
  const std::vector<int64_t> eval = subset(split.test, size.eval_rows);
  TrainerConfig tc;
  tc.epochs = 1;
  tc.patience = 0;
  tc.seed = kDatabaseSeed;
  GnnNodePredictor predictor(w->base.get(), w->users,
                             TaskKind::kBinaryClassification, 2,
                             ModelConfig(), SamplerConfig(), tc);
  {
    ScopedSpan span("train.fit");
    RELGRAPH_RETURN_IF_ERROR(predictor.Fit(table, fit_split));
  }
  w->prefetch_stalls = predictor.prefetch_stalls();
  {
    ScopedSpan span("train.predict");
    const std::vector<double> scores = predictor.PredictScores(table, eval);
    std::vector<double> truth;
    for (int64_t i : eval) {
      truth.push_back(table.labels[static_cast<size_t>(i)]);
    }
    w->test_auc = RocAuc(scores, truth);
  }
  w->ckpt = opts.scratch_dir + "/serve_model.ckpt";
  RELGRAPH_RETURN_IF_ERROR(predictor.SaveWeights(w->ckpt));

  {
    ScopedSpan span("serve.engine_build");
    w->engine = std::make_unique<InferenceEngine>(
        w->base, w->users, TaskKind::kBinaryClassification, 2, ModelConfig(),
        SamplerConfig(), w->now, EngineOptions(true));
    RELGRAPH_RETURN_IF_ERROR(w->engine->LoadCheckpoint(w->ckpt));
    w->reference = std::make_unique<InferenceEngine>(
        w->base, w->users, TaskKind::kBinaryClassification, 2, ModelConfig(),
        SamplerConfig(), w->now, EngineOptions(false));
    RELGRAPH_RETURN_IF_ERROR(w->reference->LoadCheckpoint(w->ckpt));
  }
  {
    ScopedSpan span("serve.reference_scores");
    std::vector<int64_t> all(static_cast<size_t>(size.users));
    for (int64_t i = 0; i < size.users; ++i) all[static_cast<size_t>(i)] = i;
    w->ref_scores = ScoreAll(w->reference.get(), all, 4);
    if (w->ref_scores.empty()) {
      return Status::Internal("reference scoring failed");
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------- requests

/// The ids of request `index`: a pure function of (seed, index), so the
/// same seed gives the same request stream whatever the timing.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int64_t population, bool zipf)
      : base_(seed ^ 0xC0FFEEULL), zipf_(zipf) {
    // Zipf ranks map to users through a fixed permutation, so the hot set
    // is not simply the lowest node ids and is the same for every seed.
    perm_.resize(static_cast<size_t>(population));
    for (int64_t i = 0; i < population; ++i) perm_[static_cast<size_t>(i)] = i;
    Rng rng(kDatabaseSeed);
    rng.Shuffle(&perm_);
  }

  std::vector<int64_t> Ids(int64_t index) const {
    Rng rng = base_.Fork(static_cast<uint64_t>(index));
    std::vector<int64_t> ids(kIdsPerRequest);
    for (auto& id : ids) id = Draw(&rng);
    return ids;
  }

  int64_t Draw(Rng* rng) const {
    const int n = static_cast<int>(perm_.size());
    const int rank = zipf_ ? rng->PowerLawIndex(n, kZipfAlpha)
                           : static_cast<int>(rng->UniformU64(perm_.size()));
    return perm_[static_cast<size_t>(rank)];
  }

 private:
  Rng base_;
  bool zipf_;
  std::vector<int64_t> perm_;
};

// ------------------------------------------------------------- the phases

enum class Outcome : uint8_t { kOk, kShed, kDeadline, kError };

struct Sample {
  int64_t index = 0;
  double due = 0, sent = 0, done = 0;  // seconds, steady clock
  bool waited = false;  // the client was idle and slept until `due`
  Outcome outcome = Outcome::kOk;
  bool degraded = false;
  int64_t version = 0;
  std::vector<double> scores;
};

struct Phase {
  double start = 0, end = 0;
  std::vector<std::pair<double, double>> segments;  // timed intervals
  std::vector<Sample> samples;
};

/// Adds `part`, a later run of the same loop, to `into`.
void Extend(Phase* into, Phase part) {
  if (into->segments.empty()) into->start = part.start;
  into->end = part.end;
  into->segments.insert(into->segments.end(), part.segments.begin(),
                        part.segments.end());
  for (Sample& s : part.samples) into->samples.push_back(std::move(s));
}

/// Sends one request the way the workload does and records the outcome.
class Client {
 public:
  Client(InferenceEngine* engine, CoalescingScheduler* scheduler,
         const RequestStream* stream)
      : engine_(engine), scheduler_(scheduler), stream_(stream) {}

  void Send(int64_t index, Sample* s) const {
    ScoreRequest req;
    req.entity_ids = stream_->Ids(index);
    s->index = index;
    ScopedSpan span("serve.request", index);
    s->sent = NowSeconds();
    relgraph::Result<ScoreResponse> r =
        scheduler_ != nullptr ? scheduler_->Score(req)
                              : engine_->ScoreWithOptions(req);
    s->done = NowSeconds();
    if (r.ok()) {
      s->outcome = Outcome::kOk;
      s->degraded = r.value().degraded;
      s->version = r.value().snapshot_version;
      s->scores = std::move(r.value().scores);
    } else if (r.status().code() == StatusCode::kOverloaded) {
      s->outcome = Outcome::kShed;
    } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
      s->outcome = Outcome::kDeadline;
    } else {
      s->outcome = Outcome::kError;
    }
  }

 private:
  InferenceEngine* engine_;
  CoalescingScheduler* scheduler_;
  const RequestStream* stream_;
};

/// Closed loop: each reader sends its next request when the previous one
/// returns, until `seconds` pass. Indices come from one shared counter.
Phase ClosedLoop(const Client& client, int readers, double seconds,
                 int64_t index_base, bool record) {
  Phase phase;
  std::atomic<int64_t> next{0};
  std::vector<std::vector<Sample>> per(static_cast<size_t>(readers));
  phase.start = NowSeconds();
  phase.end = phase.start + seconds;
  auto work = [&](int r) {
    while (NowSeconds() < phase.end) {
      Sample s;
      client.Send(index_base + next.fetch_add(1), &s);
      s.due = s.sent;
      if (record) per[static_cast<size_t>(r)].push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) threads.emplace_back(work, r);
  for (auto& t : threads) t.join();
  phase.segments = {{phase.start, phase.end}};
  for (auto& v : per) {
    for (auto& s : v) phase.samples.push_back(std::move(s));
  }
  return phase;
}

/// Open loop: Poisson arrivals at `rps` for `seconds`, sent by `readers`
/// client threads. A request is due at its arrival time whether or not a
/// client is free; latency counts from the due time.
Phase OpenLoop(const Client& client, int readers, double rps, double seconds,
               int64_t index_base, uint64_t seed) {
  std::vector<double> offsets;
  Rng rng(seed ^ 0x0BE7ULL);
  for (double t = rng.Exponential(rps); t < seconds;
       t += rng.Exponential(rps)) {
    offsets.push_back(t);
  }
  Phase phase;
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per(static_cast<size_t>(readers));
  phase.start = NowSeconds() + 0.01;
  const auto clock_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.01));
  auto work = [&](int r) {
#ifdef __linux__
    // Default timer slack lets sleep_until overshoot by ~50 us; that would
    // be generator lateness charged to every request's latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= offsets.size()) return;
      Sample s;
      s.due = phase.start + offsets[i];
      if (NowSeconds() < s.due) {
        s.waited = true;
        std::this_thread::sleep_until(
            clock_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i])));
      }
      const double due = s.due;
      const bool waited = s.waited;
      client.Send(index_base + static_cast<int64_t>(i), &s);
      s.due = due;
      s.waited = waited;
      per[static_cast<size_t>(r)].push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) threads.emplace_back(work, r);
  for (auto& t : threads) t.join();
  phase.end = NowSeconds();
  phase.segments = {{phase.start, phase.end}};
  for (auto& v : per) {
    for (auto& s : v) phase.samples.push_back(std::move(s));
  }
  return phase;
}

/// Completed rows per second in the closed-loop phase: the median over
/// half-second windows of every segment, which keeps one host hiccup from
/// moving the run.
double RowsPerSecond(const Phase& phase, std::vector<double>* per_window) {
  const double window = 0.5;
  per_window->clear();
  for (const auto& [start, end] : phase.segments) {
    const int n = std::max(1, static_cast<int>((end - start) / window));
    std::vector<double> rows(static_cast<size_t>(n), 0.0);
    for (const Sample& s : phase.samples) {
      if (s.done < start) continue;
      const int w = static_cast<int>((s.done - start) / window);
      if (w < n) rows[static_cast<size_t>(w)] += kIdsPerRequest;
    }
    for (double r : rows) per_window->push_back(r / window);
  }
  return Median(*per_window);
}

// ----------------------------------------------------------------- writer

struct Delta {
  double submit_ms = 0;       // submit to ApplyDelta return
  double apply_ms = 0;        // StreamingDbGraph::Apply
  double apply_delta_ms = 0;  // InferenceEngine::ApplyDelta
  int64_t version = 0;        // engine snapshot version afterwards
  int64_t migrated = 0;       // embedding entries carried to the new version
  int64_t eligible = 0;       // embedding entries that could have been
};

/// Seeded order appends from uniformly drawn users and products, dated
/// just before the serving cutoff so they change real neighbourhoods.
/// Uniform writers keep each delta's invalidation burst about the same
/// size; Zipf writers made the read tail hinge on whether a delta happened
/// to hit the hottest user.
std::vector<AppendBatch> MakeBatches(const Database& db, int64_t count,
                                     Timestamp now, uint64_t seed) {
  const int64_t users = db.table("users").num_rows();
  const int64_t products = db.table("products").num_rows();
  const int64_t first_pk = db.table("orders").num_rows() + 10000000;
  Rng rng(seed ^ 0xD317AULL);
  std::vector<AppendBatch> batches(static_cast<size_t>(count));
  for (int64_t b = 0; b < count; ++b) {
    for (int64_t i = 0; i < kOrdersPerDelta; ++i) {
      const int64_t pk = first_pk + b * kOrdersPerDelta + i;
      const int64_t user_pk = static_cast<int64_t>(rng.UniformU64(
                                  static_cast<uint64_t>(users))) + 1;
      const int64_t product_pk = static_cast<int64_t>(rng.UniformU64(
                                     static_cast<uint64_t>(products))) + 1;
      const Timestamp ts =
          now - 1 - static_cast<Timestamp>(rng.UniformU64(3600));
      batches[static_cast<size_t>(b)].Add(
          "orders", {Value(pk), Value(user_pk), Value(product_pk),
                     Value::Time(ts), Value(int64_t{1}), Value(9.5),
                     Value(9.5)});
    }
  }
  return batches;
}

class Writer {
 public:
  Writer(World* w, const std::vector<AppendBatch>* batches, double rate)
      : w_(w), batches_(batches), rate_(rate) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { Stop(); }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Delta>& deltas() const { return deltas_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    const auto start = Clock::now();
    int64_t prev_migrated = 0;
    ServeStats last = w_->engine->stats();
    for (size_t b = 0; b < batches_->size() && !stop_; ++b) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(b / rate_)));
      if (stop_) return;
      Delta d;
      const ServeStats before = w_->engine->stats();
      const int64_t migrated0 =
          CounterValue("serve_delta_migrated_embeddings_total");
      const double t0 = NowSeconds();
      relgraph::Result<StreamingApplyResult> applied = [&] {
        ScopedSpan span("db2graph.apply", static_cast<int64_t>(b));
        return w_->stream->Apply((*batches_)[b]);
      }();
      const double t1 = NowSeconds();
      if (!applied.ok() || !applied.value().outcome.clean()) {
        error_ = applied.ok() ? "append quarantined rows"
                              : applied.status().ToString();
        return;
      }
      Status st;
      {
        ScopedSpan span("serve.apply_delta", static_cast<int64_t>(b));
        st = w_->engine->ApplyDelta(applied.value().graph, w_->now,
                                    applied.value().delta);
      }
      const double t2 = NowSeconds();
      if (!st.ok()) {
        error_ = st.ToString();
        return;
      }
      d.apply_ms = (t1 - t0) * 1e3;
      d.apply_delta_ms = (t2 - t1) * 1e3;
      d.submit_ms = (t2 - t0) * 1e3;
      d.version = w_->engine->snapshot_version();
      d.migrated =
          CounterValue("serve_delta_migrated_embeddings_total") - migrated0;
      // Entries of the outgoing version: those carried into it by the
      // previous delta plus those computed (missed) since, capped by the
      // cache capacity.
      d.eligible = std::min<int64_t>(
          EngineOptions(true).embedding_cache_capacity,
          prev_migrated + (before.embedding_misses - last.embedding_misses));
      prev_migrated = d.migrated;
      last = before;
      deltas_.push_back(d);
    }
  }

  World* w_;
  const std::vector<AppendBatch>* batches_;
  double rate_;
  std::atomic<bool> stop_{false};
  std::vector<Delta> deltas_;
  std::string error_;
  std::thread thread_;  // last: joined before the members it uses go
};

// ------------------------------------------------------------ verification

struct Verdict {
  int64_t attempted = 0, failed = 0, mismatched = 0;
  int64_t shed = 0, deadline = 0, degraded = 0;
  int64_t versions_checked = 0;
  std::string error;
};

/// Checks every recorded response against a cache-off solo engine at the
/// snapshot version that answered it. Version 0 uses the set-up reference;
/// later versions replay the writer's batches, in order, on a fresh copy
/// of the database. Runs after the timed phases.
Verdict Verify(const ServeSize& size, const World& w,
               const RequestStream& stream,
               const std::vector<const Phase*>& phases,
               const std::vector<AppendBatch>& batches, int64_t applied) {
  Verdict v;
  std::map<int64_t, std::vector<const Sample*>> by_version;
  for (const Phase* p : phases) {
    for (const Sample& s : p->samples) {
      ++v.attempted;
      bool refused = true;
      switch (s.outcome) {
        case Outcome::kShed: ++v.shed; break;
        case Outcome::kDeadline: ++v.deadline; break;
        case Outcome::kError: break;
        case Outcome::kOk: refused = false; break;
      }
      if (!refused && s.degraded) ++v.degraded;
      if (refused || s.degraded) {
        ++v.failed;
        continue;
      }
      by_version[s.version].push_back(&s);
    }
  }
  auto check = [&](const std::vector<const Sample*>& samples,
                   const std::unordered_map<int64_t, double>* at_version) {
    for (const Sample* s : samples) {
      const std::vector<int64_t> ids = stream.Ids(s->index);
      bool good = s->scores.size() == ids.size();
      for (size_t i = 0; good && i < ids.size(); ++i) {
        const double want = at_version != nullptr
                                ? at_version->at(ids[i])
                                : w.ref_scores[static_cast<size_t>(ids[i])];
        good = std::memcmp(&want, &s->scores[i], sizeof(double)) == 0;
      }
      if (!good) {
        ++v.mismatched;
        ++v.failed;
      }
    }
  };

  std::unique_ptr<Database> db;
  std::unique_ptr<StreamingDbGraph> replay;
  std::unique_ptr<InferenceEngine> ref;
  std::shared_ptr<const HeteroGraph> held;  // the epoch `ref` serves
  int64_t at = 0;
  for (const auto& [version, samples] : by_version) {
    ++v.versions_checked;
    if (version == 0) {
      check(samples, nullptr);
      continue;
    }
    if (version > applied) {
      v.error = "response from unknown snapshot version " +
                std::to_string(version);
      v.failed += static_cast<int64_t>(samples.size());
      v.mismatched += static_cast<int64_t>(samples.size());
      continue;
    }
    if (ref == nullptr) {
      db = std::make_unique<Database>(
          MakeECommerceDb(DbConfig(size)));
      replay = StreamingDbGraph::Create(db.get()).value();
      held = replay->graph();
      ref = std::make_unique<InferenceEngine>(
          held, w.users, TaskKind::kBinaryClassification, 2, ModelConfig(),
          SamplerConfig(), w.now, EngineOptions(false));
      if (!ref->LoadCheckpoint(w.ckpt).ok()) {
        v.error = "reference checkpoint load failed";
        v.failed += static_cast<int64_t>(samples.size());
        return v;
      }
    }
    while (at < version) {
      auto r = replay->Apply(batches[static_cast<size_t>(at)]);
      // Keep the outgoing epoch alive until the engine has moved off it.
      std::shared_ptr<const HeteroGraph> next = r.value().graph;
      if (!ref->AdvanceSnapshot(next.get(), w.now).ok()) {
        v.error = "reference advance failed";
        return v;
      }
      held = std::move(next);
      ++at;
    }
    std::set<int64_t> distinct;
    for (const Sample* s : samples) {
      for (int64_t id : stream.Ids(s->index)) distinct.insert(id);
    }
    const std::vector<int64_t> ids(distinct.begin(), distinct.end());
    const std::vector<double> scores = ScoreAll(ref.get(), ids, 4);
    std::unordered_map<int64_t, double> want;
    for (size_t i = 0; i < scores.size(); ++i) want[ids[i]] = scores[i];
    if (scores.size() != ids.size()) {
      v.error = "reference scoring failed";
      v.failed += static_cast<int64_t>(samples.size());
      continue;
    }
    check(samples, &want);
  }
  return v;
}

// ------------------------------------------------------------ cold replay

struct Replay {
  int64_t requests = 0, rows = 0, seeds = 0, batches = 0, mismatched = 0;
  double score_s = 0, sample_s = 0, concat_s = 0, forward_s = 0;
  double nodes = 0, unique_frac_sum = 0;
  HeapTotals heap;
  int64_t arena_hits = 0, arena_allocs = 0;
  int64_t flops = 0, par = 0, ser = 0;
};

/// Single-threaded cold replay (see the file comment). Resource counters
/// are read around the engine's Score call only, so they describe the
/// production path, not the replay.
Replay ColdReplay(const ServeSize& size, const World& w,
                  const RequestStream& stream) {
  Replay out;
  const GnnConfig gnn = ModelConfig();
  const HeteroGraph* graph = w.base.get();
  TensorBundle bundle = LoadTensorBundle(w.ckpt).value();
  Rng init(EngineOptions(false).seed);
  HeteroSageModel model(graph, gnn, &init);
  ScalarHead head(gnn.hidden_dim, &init);
  AssignParameterValues({&model, &head}, bundle.tensors);
  NeighborSampler sampler(graph, SamplerConfig());
  const uint64_t salt = w.reference->serving_salt();
  const int64_t micro = EngineOptions(false).micro_batch_size;

  EnableHeapCounting(true);
  for (int64_t r = 0; r < size.replay_requests; ++r) {
    const int64_t index = (int64_t{1} << 42) + r;
    ScoreRequest req;
    req.entity_ids = stream.Ids(index);
    const int64_t n = static_cast<int64_t>(req.entity_ids.size());

    const HeapTotals h0 = HeapNow();
    const FloatBufferPool::Stats a0 = FloatBufferPool::Global().stats();
    const int64_t f0 = CounterValue("gemm_flops_total");
    const int64_t p0 = CounterValue("gemm_parallel_total");
    const int64_t s0 = CounterValue("gemm_serial_total");
    ScopedSpan score_span("serve.score_cold", index);
    relgraph::Result<ScoreResponse> resp =
        w.reference->ScoreWithOptions(req);
    out.score_s += score_span.Stop();
    const HeapTotals h1 = HeapNow();
    const FloatBufferPool::Stats a1 = FloatBufferPool::Global().stats();
    out.heap.allocs += h1.allocs - h0.allocs;
    out.heap.bytes += h1.bytes - h0.bytes;
    out.arena_hits += a1.pool_hits - a0.pool_hits;
    out.arena_allocs += a1.heap_allocs - a0.heap_allocs;
    out.flops += CounterValue("gemm_flops_total") - f0;
    out.par += CounterValue("gemm_parallel_total") - p0;
    out.ser += CounterValue("gemm_serial_total") - s0;

    // The same request rebuilt from the checkpoint: distinct ids in first
    // appearance order, micro-batches of the engine's size.
    ScopedSpan replay_span("serve.replay", index);
    std::vector<int64_t> distinct;
    std::unordered_map<int64_t, std::vector<int64_t>> rows_of;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t id = req.entity_ids[static_cast<size_t>(i)];
      auto [it, inserted] = rows_of.try_emplace(id);
      if (inserted) distinct.push_back(id);
      it->second.push_back(i);
    }
    Tensor emb = Tensor::Zeros(n, gnn.hidden_dim);
    for (size_t b = 0; b < distinct.size(); b += static_cast<size_t>(micro)) {
      const size_t e =
          std::min(distinct.size(), b + static_cast<size_t>(micro));
      std::vector<Subgraph> parts;
      {
        ScopedSpan span("sampler.sample_for_serving", index);
        for (size_t k = b; k < e; ++k) {
          parts.push_back(
              sampler.SampleForServing(w.users, distinct[k], w.now, salt));
        }
        out.sample_s += span.Stop();
      }
      std::vector<const Subgraph*> ptrs;
      for (const Subgraph& p : parts) {
        ptrs.push_back(&p);
        for (const auto& nodes : p.frontiers.back().nodes) {
          out.nodes += static_cast<double>(nodes.size());
        }
      }
      Subgraph sg;
      {
        ScopedSpan span("sampler.concat", index);
        sg = ConcatSubgraphs(graph, ptrs);
        out.concat_s += span.Stop();
      }
      int64_t slots = 0, unique = 0;
      for (const auto& nodes : sg.frontiers.back().nodes) {
        std::vector<int64_t> sorted = nodes;
        std::sort(sorted.begin(), sorted.end());
        slots += static_cast<int64_t>(sorted.size());
        unique += std::unique(sorted.begin(), sorted.end()) - sorted.begin();
      }
      out.unique_frac_sum +=
          slots > 0 ? static_cast<double>(unique) / slots : 1.0;
      {
        ScopedSpan span("gnn.forward", index);
        VarPtr e_var = model.ForwardOn(graph, sg, w.users, /*rng=*/nullptr,
                                       /*training=*/false, Precision::kFp32);
        for (size_t k = b; k < e; ++k) {
          const float* src =
              e_var->value().data() +
              static_cast<int64_t>(k - b) * gnn.hidden_dim;
          for (int64_t row : rows_of.at(distinct[k])) {
            std::memcpy(&emb.at(row, 0), src,
                        sizeof(float) * static_cast<size_t>(gnn.hidden_dim));
          }
        }
        out.forward_s += span.Stop();
      }
      out.seeds += static_cast<int64_t>(e - b);
      ++out.batches;
    }
    std::vector<double> scores;
    {
      ScopedSpan span("gnn.head", index);
      VarPtr logits =
          head.ForwardWithPrecision(ag::Constant(emb), Precision::kFp32);
      for (int64_t i = 0; i < n; ++i) {
        // The engine's conversion, expression for expression.
        scores.push_back(1.0 / (1.0 + std::exp(-logits->value().at(i, 0))));
      }
      out.forward_s += span.Stop();
    }
    replay_span.Stop();
    const bool same =
        resp.ok() && resp.value().scores.size() == scores.size() &&
        std::memcmp(resp.value().scores.data(), scores.data(),
                    sizeof(double) * scores.size()) == 0;
    if (!same) ++out.mismatched;
    ++out.requests;
    out.rows += n;
  }
  EnableHeapCounting(false);
  return out;
}

// ---------------------------------------------------------------- metrics

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> LatenciesMs(const Phase& p) {
  std::vector<double> v;
  for (const Sample& s : p.samples) v.push_back((s.done - s.due) * 1e3);
  return v;
}

/// The `q` quantile of each consecutive window of at least 1,000 requests,
/// in due order; the median over windows. One host stall then moves one
/// window, not the run's tail.
double WindowedQuantile(const Phase& p, double q,
                        std::vector<double>* per_window) {
  std::vector<std::pair<double, double>> by_due;  // (due, latency ms)
  for (const Sample& s : p.samples) {
    by_due.push_back({s.due, (s.done - s.due) * 1e3});
  }
  std::sort(by_due.begin(), by_due.end());
  constexpr size_t kWindow = 1000;
  const size_t windows = std::max<size_t>(1, by_due.size() / kWindow);
  per_window->clear();
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * kWindow;
    const size_t end = w + 1 == windows ? by_due.size() : begin + kWindow;
    std::vector<double> lat;
    for (size_t i = begin; i < end; ++i) lat.push_back(by_due[i].second);
    per_window->push_back(Percentile(lat, q));
  }
  return Median(*per_window);
}

}  // namespace

RunResult RunServe(const RunOptions& opts) {
  RunResult res;
  const Shape shape = ShapeFor(opts.workload, opts.smoke);
  const ServeSize size = SizeFor(opts.smoke, shape.mixed);
  res.info["threads.pool"] = std::to_string(NumThreads());
  res.info["threads.clients"] =
      std::to_string(shape.readers) +
      (shape.mixed ? " readers + 1 writer" : "");
  res.info["size.users"] = std::to_string(size.users);
  res.info["ids_per_request"] = std::to_string(kIdsPerRequest);
  res.info["offered_rps"] = std::to_string(shape.offered_rps);
  res.info["embedding_cache_capacity"] =
      std::to_string(EngineOptions(true).embedding_cache_capacity);
  res.info["subgraph_cache_capacity"] =
      std::to_string(EngineOptions(true).subgraph_cache_capacity);
  if (shape.mixed) {
    res.info["deltas_per_s"] = std::to_string(shape.deltas_per_s);
  }

  // ---- set-up: three times untraced (median is setup_s), once traced ----
  std::unique_ptr<World> world;
  std::vector<double> setups;
  Tracer::Get().Enable(opts.trace);
  for (int rep = 0; rep < (opts.trace ? 1 : 3); ++rep) {
    world.reset();  // members go in reverse order: engines before the data
    ResetPeakRss();
    world = std::make_unique<World>();
    const double t0 = NowSeconds();
    Status st = BuildWorld(opts, size, world.get());
    setups.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      res.Gate("setup", false, st.ToString());
      return res;
    }
  }
  Tracer::Get().Enable(false);
  World& w = *world;

  const RequestStream stream(opts.seed, size.users, shape.mixed);
  std::unique_ptr<CoalescingScheduler> scheduler;
  if (shape.mixed) {
    scheduler = std::make_unique<CoalescingScheduler>(w.engine.get());
  }
  const Client client(w.engine.get(), scheduler.get(), &stream);

  std::vector<AppendBatch> batches;
  std::unique_ptr<Writer> writer;
  if (shape.mixed) {
    // Enough batches for the whole run at the fixed rate, with margin.
    const double expected = shape.deltas_per_s * opts.seconds;
    const int64_t count = static_cast<int64_t>(std::ceil(expected * 1.2)) + 8;
    batches = MakeBatches(*w.db, count, w.now, opts.seed);
    writer = std::make_unique<Writer>(&w, &batches, shape.deltas_per_s);
    writer->Start();
  }

  // ---- phases --------------------------------------------------------------
  const double S = opts.seconds;
  const int64_t kWarmBase = int64_t{1} << 40, kOpenBase = int64_t{1} << 41,
                kTracedBase = int64_t{3} << 40;
  ClosedLoop(client, shape.readers, 0.1 * S, kWarmBase, /*record=*/false);
  Phase closed, traced_closed, open;
  ServeStats st0, st1;
  CoalesceStats co0, co1;
  if (!opts.trace) {
    // Three rounds of a closed loop (10%) and an open loop (20%): each
    // metric then samples the host across the whole run, not one stretch
    // of it, whose speed on a shared host drifts over tens of seconds.
    for (int64_t k = 0; k < 3; ++k) {
      Extend(&closed,
             ClosedLoop(client, shape.readers, 0.1 * S, k << 36, true));
      Extend(&open, OpenLoop(client, shape.readers, shape.offered_rps,
                             0.2 * S, kOpenBase + (k << 36),
                             opts.seed + static_cast<uint64_t>(k)));
    }
  } else {
    closed = ClosedLoop(client, shape.readers, 0.2 * S, 0, true);
    Tracer::Get().Enable(true);
    st0 = w.engine->stats();
    if (scheduler) co0 = scheduler->stats();
    traced_closed =
        ClosedLoop(client, shape.readers, 0.3 * S, kTracedBase, true);
    st1 = w.engine->stats();
    if (scheduler) co1 = scheduler->stats();
    open = OpenLoop(client, shape.readers, shape.offered_rps, 0.3 * S,
                    kOpenBase, opts.seed);
  }
  std::vector<Delta> deltas;
  if (writer) {
    writer->Stop();
    deltas = writer->deltas();
    res.Gate("writer_ok", writer->error().empty(), writer->error());
    bool sequential = true;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (deltas[i].version != static_cast<int64_t>(i) + 1) sequential = false;
    }
    res.Gate("delta_versions_sequential", sequential, "");
    res.info["deltas_applied"] = std::to_string(deltas.size());
  }

  Replay replay;
  if (opts.trace) replay = ColdReplay(size, w, stream);
  Tracer::Get().Enable(false);

  // ---- correctness ----------------------------------------------------------
  std::vector<const Phase*> phases = {&closed, &open};
  if (opts.trace) phases.push_back(&traced_closed);
  const double verify_t0 = NowSeconds();
  const Verdict v = Verify(size, w, stream, phases, batches,
                           static_cast<int64_t>(deltas.size()));
  res.info["verify_s"] = std::to_string(NowSeconds() - verify_t0);
  res.attempted = v.attempted;
  res.failed = v.failed;
  res.Gate("responses_bit_identical_to_reference", v.mismatched == 0,
           std::to_string(v.mismatched) + " mismatched of " +
               std::to_string(v.attempted) + ", " +
               std::to_string(v.versions_checked) + " versions" +
               (v.error.empty() ? "" : ", " + v.error));
  if (opts.trace) {
    res.Gate("replay_bit_identical_to_score", replay.mismatched == 0,
             std::to_string(replay.mismatched) + " of " +
                 std::to_string(replay.requests) + " requests differ");
  }

  // Generator hygiene: how late the generator itself woke for requests it
  // had a free client for. Beyond the limit the latencies describe the
  // load generator, not the system, and the run is marked invalid.
  std::vector<double> gen_late, send_wait;
  for (const Sample& s : open.samples) {
    send_wait.push_back((s.sent - s.due) * 1e3);
    if (s.waited) gen_late.push_back((s.sent - s.due) * 1e3);
  }
  const double gen_late_p99 = Percentile(gen_late, 0.99);
  if (gen_late_p99 > kGeneratorLateLimitMs) {
    res.valid = false;
    res.notes.push_back("INVALID: load generator woke " +
                        std::to_string(gen_late_p99) +
                        " ms late at p99 (limit " +
                        std::to_string(kGeneratorLateLimitMs) + " ms)");
  }
  res.info["open_loop_requests"] = std::to_string(open.samples.size());
  res.info["closed_loop_requests"] = std::to_string(closed.samples.size());

  if (!opts.trace) {
    const std::vector<double> lat = LatenciesMs(open);
    res.Metric("setup_s", Median(setups), "s");
    res.info["setup_s_each"] = JoinNumbers(setups);
    std::vector<double> rows_windows;
    res.Metric("rows_per_s", RowsPerSecond(closed, &rows_windows), "rows/s");
    res.info["rows_per_s_windows"] = JoinNumbers(rows_windows);
    res.Metric("p50_ms", Percentile(lat, 0.5), "ms");
    std::vector<double> p90s, p99s;
    res.Metric("p90_ms", WindowedQuantile(open, 0.9, &p90s), "ms");
    res.Metric("ok_frac", 1.0 - Ratio(static_cast<double>(v.failed),
                                      static_cast<double>(v.attempted)),
               "ratio");
    res.Metric("test_auc", w.test_auc, "ratio");
    res.info["latency_samples"] = std::to_string(lat.size());
    res.info["latency_p90_windows_ms"] = JoinNumbers(p90s);
    // p99 is kept in the provenance only: on a shared host its windows
    // spread too far between runs to carry a regression bound.
    res.info["latency_p99_ms"] = std::to_string(Percentile(lat, 0.99));
    WindowedQuantile(open, 0.99, &p99s);
    res.info["latency_p99_windows_ms"] = JoinNumbers(p99s);
    return res;
  }

  // ---- per-layer metrics (traced run) -----------------------------------
  auto span_s = [](const char* name) { return Tracer::Get().Of(name).total_s; };
  res.Metric("pq.label_build_s", span_s("pq.label_build"), "s");
  res.Metric("pq.training_rows", static_cast<double>(w.training_rows), "count");
  res.Metric("db2graph.build_s", span_s("db2graph.build"), "s");
  res.Metric("train.fit_s", span_s("train.fit"), "s");
  res.Metric("train.predict_s", span_s("train.predict"), "s");
  res.Metric("train.prefetch_stalls", static_cast<double>(w.prefetch_stalls),
             "count");
  res.Metric("train.test_auc", w.test_auc, "ratio");

  std::vector<double> apply_ms, apply_delta_ms, submit_ms;
  double migrated = 0, eligible = 0;
  for (const Delta& d : deltas) {
    apply_ms.push_back(d.apply_ms);
    apply_delta_ms.push_back(d.apply_delta_ms);
    submit_ms.push_back(d.submit_ms);
    migrated += static_cast<double>(d.migrated);
    eligible += static_cast<double>(d.eligible);
  }
  res.Metric("db2graph.apply_p50_ms", Percentile(apply_ms, 0.5), "ms");
  res.Metric("db2graph.apply_p90_ms", Percentile(apply_ms, 0.9), "ms");
  res.Metric("serve.apply_delta_p50_ms", Percentile(apply_delta_ms, 0.5), "ms");
  res.Metric("serve.apply_delta_p90_ms", Percentile(apply_delta_ms, 0.9), "ms");
  res.Metric("serve.delta_p50_ms", Percentile(submit_ms, 0.5), "ms");
  res.Metric("serve.delta_p90_ms", Percentile(submit_ms, 0.9), "ms");
  res.Metric("serve.delta_survived_frac", Ratio(migrated, eligible), "ratio");

  const double rows = static_cast<double>(replay.rows);
  const double us_per_seed = 1e6 * Ratio(replay.sample_s, replay.seeds);
  res.Metric("sampler.serve_us_per_seed", us_per_seed, "us");
  res.Metric("sampler.nodes_per_seed", Ratio(replay.nodes, replay.seeds),
             "count");
  res.Metric("sampler.unique_node_frac",
             Ratio(replay.unique_frac_sum, replay.batches), "ratio");
  res.Metric("sampler.concat_us_per_batch",
             1e6 * Ratio(replay.concat_s, replay.batches), "us");
  res.Metric("gnn.forward_us_per_row", 1e6 * Ratio(replay.forward_s, rows),
             "us");
  res.Metric("tensor.gemm_flop_per_row", Ratio(replay.flops, rows), "flop");
  res.Metric("tensor.gemm_parallel_frac",
             Ratio(replay.par, replay.par + replay.ser), "ratio");
  res.Metric("tensor.arena_hit_rate",
             Ratio(replay.arena_hits, replay.arena_hits + replay.arena_allocs),
             "ratio");
  res.Metric("core.arena_heap_allocs_per_row", Ratio(replay.arena_allocs, rows),
             "count");
  res.Metric("core.heap_allocs_per_row", Ratio(replay.heap.allocs, rows),
             "count");
  res.Metric("core.heap_bytes_per_row", Ratio(replay.heap.bytes, rows), "B");
  res.Metric("serve.overhead_us_per_row",
             1e6 * Ratio(replay.score_s - replay.sample_s - replay.concat_s -
                             replay.forward_s,
                         rows),
             "us");

  // Traffic layers, over the traced closed loop.
  const double emb_lookups = static_cast<double>(
      st1.embedding_hits - st0.embedding_hits + st1.embedding_misses -
      st0.embedding_misses);
  const double sub_lookups = static_cast<double>(
      st1.subgraph_hits - st0.subgraph_hits + st1.subgraph_misses -
      st0.subgraph_misses);
  res.Metric("serve.embedding_hit_rate",
             Ratio(st1.embedding_hits - st0.embedding_hits, emb_lookups),
             "ratio");
  res.Metric("serve.subgraph_hit_rate",
             Ratio(st1.subgraph_hits - st0.subgraph_hits, sub_lookups),
             "ratio");
  res.Metric("serve.coalesce_rate",
             Ratio(co1.coalesced_requests - co0.coalesced_requests,
                   co1.requests - co0.requests),
             "ratio");
  res.Metric("serve.dedup_rate",
             Ratio(co1.dedup_rows - co0.dedup_rows,
                   co1.rows_submitted - co0.rows_submitted),
             "ratio");
  res.Metric("serve.batch_rows",
             Ratio(co1.rows_executed - co0.rows_executed,
                   co1.batches - co0.batches),
             "count");
  const double closed_wall = traced_closed.end - traced_closed.start;
  const double seeds_sampled =
      static_cast<double>(st1.subgraph_misses - st0.subgraph_misses);
  res.Metric("sampler.serve_wall_share",
             Ratio(us_per_seed * 1e-6 * seeds_sampled,
                   closed_wall * shape.readers),
             "ratio");
  res.Metric("serve.send_wait_p99_ms", Percentile(send_wait, 0.99), "ms");
  res.Metric("serve.gen_late_p99_ms", gen_late_p99, "ms");
  const double att = static_cast<double>(v.attempted);
  res.Metric("serve.shed_frac", Ratio(v.shed, att), "ratio");
  res.Metric("serve.deadline_frac", Ratio(v.deadline, att), "ratio");
  res.Metric("serve.degraded_frac", Ratio(v.degraded, att), "ratio");

  // Tracing overhead: traced against untraced closed-loop throughput.
  std::vector<double> unused;
  const double untraced = RowsPerSecond(closed, &unused);
  const double traced = RowsPerSecond(traced_closed, &unused);
  res.Metric("trace.overhead_frac", Ratio(untraced - traced, untraced),
             "ratio");
  res.info["replay_requests"] = std::to_string(replay.requests);
  return res;
}

}  // namespace relbench
