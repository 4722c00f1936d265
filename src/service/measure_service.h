// MeasureService: the measurement serving layer.
//
// Real workloads evaluate the paper's μ(q, D, (a,s)) for *many* candidate
// tuples over one database, and those requests share almost all of their
// constraint geometry. The service amortizes that sharing:
//
//   * every grounded constraint system is canonicalized into
//     content-addressed keys (convex/canonical.h), and identical convex
//     bodies are deduplicated within and across requests through a
//     size-bounded LRU EstimateCache — each unique body is sampled once per
//     (ε tier, seed path), then every later occurrence is a cache hit;
//   * whole results are memoized by request signature (request_key.h), so a
//     repeated candidate skips sampling entirely. This is the serving
//     layer's one result memo: a RankingSession replays its warm tiers
//     through it (ranking_session.h);
//   * RunBatch executes its requests in order on the calling thread, and
//     each request's estimator runs on the service's util::ThreadPool — the
//     same parallel sampling runtime the direct API uses.
//
// Determinism contract: a batch of N requests returns results bit-identical
// to N sequential ComputeNu calls with the same per-request options, for
// any thread count, any batch order, any batch composition, and any cache
// state. This holds because every cached value is a pure function of its
// key (see estimate_cache.h) and requests are mutually independent.
// `service_test.cc` locks the contract in.
//
// Requests carry grounded formulas: the SQL path grounds in
// engine::EvaluateCq, and callers holding a logic::Query ground it with
// translate::GroundQuery (or call measure::ComputeMeasure directly). The
// service owns its caches and its thread pool.

#ifndef MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
#define MUDB_SRC_SERVICE_MEASURE_SERVICE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/measure/measure.h"
#include "src/service/estimate_cache.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::service {

struct ServiceOptions {
  /// Worker threads for the estimators (0 or negative = all hardware
  /// threads). Results are bit-identical for any value.
  int num_threads = 1;
};

/// One measurement request: evaluate ν(formula). A request without a
/// formula fails with InvalidArgument.
struct MeasureRequest {
  std::optional<constraints::RealFormula> formula;
  /// Per-request engine options (method, ε/δ, seed, ...). The service fills
  /// in pool and body_cache, which cannot change results.
  measure::MeasureOptions options;

  static MeasureRequest Nu(constraints::RealFormula f,
                           measure::MeasureOptions opts = {}) {
    MeasureRequest r;
    r.formula = std::move(f);
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
  /// Wall time of the whole batch (first request to last result).
  double wall_ms = 0.0;
};

class MeasureService {
 public:
  explicit MeasureService(const ServiceOptions& options = {});

  MeasureService(const MeasureService&) = delete;
  MeasureService& operator=(const MeasureService&) = delete;

  /// Runs every request in order on the calling thread and reports
  /// per-batch accounting. Results are positionally aligned with `requests`
  /// and bit-identical to sequential ComputeNu calls with the same
  /// per-request options. Thread-safe: concurrent calls run one batch at a
  /// time, because the batch's estimators share the service's pool.
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
  /// Running sum of every finished batch's BatchStats. Waits for a batch
  /// in flight to finish.
  BatchStats lifetime_stats() const;

 private:
  /// Executes one request, adding its accounting into `*stats`.
  util::StatusOr<measure::MeasureResult> Process(const MeasureRequest& request,
                                                 BatchStats* stats);

  util::ThreadPool pool_;
  EstimateCache body_cache_;
  LruCache<measure::MeasureResult> result_cache_;

  mutable std::mutex mu_;  // held across RunBatch; guards lifetime_
  BatchStats lifetime_;
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
