// MeasureService: the measurement serving layer.
//
// Real workloads evaluate the paper's μ(q, D, (a,s)) for *many* candidate
// tuples over one database, and those requests share almost all of their
// constraint geometry. The service amortizes that sharing:
//
//   * every grounded constraint system is canonicalized into
//     content-addressed keys (convex/canonical.h), and identical convex
//     bodies are deduplicated within and across requests through a sharded,
//     size-bounded EstimateCache — each unique body is sampled once per
//     (ε tier, seed path), then every later occurrence is a cache hit;
//   * whole results are memoized by request signature (request_key.h), so a
//     repeated candidate skips sampling entirely;
//   * requests are accepted asynchronously (Submit returns a future-style
//     Ticket; Wait blocks for one result) and executed by a dispatcher
//     thread that runs each request's estimator on the shared
//     util::ThreadPool — the same parallel sampling runtime the direct API
//     uses.
//
// Determinism contract: a batch of N requests returns results bit-identical
// to N sequential ComputeNu / ComputeMeasure calls with the same per-request
// options, for any thread count, any submission order, any batch
// composition, and any cache state. This holds because every cached value
// is a pure function of its key (see estimate_cache.h) and requests are
// mutually independent. `service_test.cc` locks the contract in.
//
// Lifetimes: query-path requests borrow the Query/Database; keep them alive
// until the request's result is returned. The service owns its caches and
// (unless given an external one) its thread pool.

#ifndef MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
#define MUDB_SRC_SERVICE_MEASURE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/logic/formula.h"
#include "src/measure/measure.h"
#include "src/model/database.h"
#include "src/obs/trace.h"
#include "src/service/estimate_cache.h"
#include "src/service/request_key.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::service {

struct ServiceOptions {
  /// Worker threads for the estimators (0 or negative = all hardware
  /// threads). Results are bit-identical for any value.
  int num_threads = 1;
  /// Optional external pool (not owned; the service is its only submitter
  /// while running). When null the service owns a pool of num_threads.
  util::ThreadPool* pool = nullptr;
  /// Per-body estimate cache sizing (see EstimateCache::Options).
  size_t body_cache_capacity = 4096;
  /// Request-result memo sizing.
  size_t result_cache_capacity = 4096;
  /// Shards for both caches (rounded up to a power of two).
  int cache_shards = 8;
};

/// One measurement request: a pre-grounded formula, or a (query, database,
/// candidate) triple grounded by the service. Exactly one of the two forms.
struct MeasureRequest {
  /// Form 1: evaluate ν(formula).
  std::optional<constraints::RealFormula> formula;
  /// Form 2: evaluate μ(query, db, candidate). Borrowed, not owned.
  const logic::Query* query = nullptr;
  const model::Database* db = nullptr;
  model::Tuple candidate;
  /// Per-request engine options (method, ε/δ, seed, ...). The service fills
  /// in pool and body_cache; num_threads cannot change results.
  measure::MeasureOptions options;

  static MeasureRequest Nu(constraints::RealFormula f,
                           measure::MeasureOptions opts = {}) {
    MeasureRequest r;
    r.formula = std::move(f);
    r.options = opts;
    return r;
  }
  static MeasureRequest Mu(const logic::Query* q, const model::Database* d,
                           model::Tuple cand,
                           measure::MeasureOptions opts = {}) {
    MeasureRequest r;
    r.query = q;
    r.db = d;
    r.candidate = std::move(cand);
    r.options = opts;
    return r;
  }
};

/// Per-batch accounting, aggregated from MeasureResult /
/// FprasResult-derived counters of the requests the batch executed.
struct BatchStats {
  int64_t requests = 0;
  /// Requests answered from the result memo (zero sampling performed).
  int64_t request_cache_hits = 0;
  /// Unique-body volume estimates served by the body cache (executed
  /// requests only).
  int64_t body_cache_hits = 0;
  /// Convex bodies entering FPRAS unions, before / after canonical dedup.
  int64_t bodies = 0;
  int64_t unique_bodies = 0;
  /// Hit-and-run steps actually sampled by this batch.
  int64_t sampling_steps = 0;
  /// Direction samples drawn by AFPRAS-family engines in this batch.
  int64_t samples = 0;
  /// Wall time of the whole batch (submission to last result).
  double wall_ms = 0.0;
};

class MeasureService {
 public:
  /// A future-style handle for one submitted request.
  using Ticket = std::future<util::StatusOr<measure::MeasureResult>>;

  explicit MeasureService(const ServiceOptions& options = {});
  /// Drains outstanding requests, then joins the dispatcher.
  ~MeasureService();

  MeasureService(const MeasureService&) = delete;
  MeasureService& operator=(const MeasureService&) = delete;

  /// Enqueues one request; returns immediately. Thread-safe.
  Ticket Submit(MeasureRequest request);

  /// Blocks until `ticket`'s request completes and returns its result.
  static util::StatusOr<measure::MeasureResult> Wait(Ticket& ticket) {
    return ticket.get();
  }

  /// Submits every request, waits for all of them, and reports per-batch
  /// accounting. Results are positionally aligned with `requests` and
  /// bit-identical to sequential ComputeNu/ComputeMeasure calls with the
  /// same per-request options. The stats delta is attributed to this batch;
  /// attribute precisely by not interleaving concurrent Submits with a
  /// RunBatch call.
  struct BatchOutcome {
    std::vector<util::StatusOr<measure::MeasureResult>> results;
    BatchStats stats;
    /// Flight-recorder handle: the trace id of the batch's span tree when
    /// tracing was enabled (obs::CollectTrace(trace_id) fetches it), 0
    /// otherwise. Carries no result data — purely an index into obs.
    uint64_t trace_id = 0;
  };
  BatchOutcome RunBatch(std::vector<MeasureRequest> requests);

  /// Cache introspection (cheap; safe to call any time).
  CacheStats body_cache_stats() const { return body_cache_.stats(); }
  int64_t body_cache_steps_saved() const { return body_cache_.steps_saved(); }
  CacheStats result_cache_stats() const { return result_cache_.stats(); }
  /// Lifetime totals over every request the service executed (the same
  /// counters BatchStats reports per batch).
  BatchStats lifetime_stats() const;

 private:
  struct Job {
    MeasureRequest request;
    std::promise<util::StatusOr<measure::MeasureResult>> promise;
    /// Submitter's span context, adopted by the dispatcher so the request's
    /// spans parent under the submitting batch/tier span.
    obs::SpanContext ctx;
  };
  /// A memoized result plus what it cost originally (replays are free).
  struct MemoEntry {
    measure::MeasureResult result;
  };

  void DispatcherLoop();
  util::StatusOr<measure::MeasureResult> Process(MeasureRequest& request);

  ServiceOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  // owned_pool_.get() or options_.pool
  EstimateCache body_cache_;
  ShardedLruCache<MemoEntry> result_cache_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;  // guarded by mu_
  bool stop_ = false;      // guarded by mu_

  // Lifetime counters, written only by the dispatcher thread.
  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> total_request_cache_hits_{0};
  std::atomic<int64_t> total_body_cache_hits_{0};
  std::atomic<int64_t> total_bodies_{0};
  std::atomic<int64_t> total_unique_bodies_{0};
  std::atomic<int64_t> total_sampling_steps_{0};
  std::atomic<int64_t> total_samples_{0};

  // mudb-lint: allow(no-raw-thread) -- documented dispatcher storage;
  // the control thread never touches sampling grids or substreams.
  std::thread dispatcher_;  // last member: started after everything above
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
