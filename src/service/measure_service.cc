#include "src/service/measure_service.h"

#include <cstdio>
#include <string>

#include "src/obs/trace.h"
#include "src/service/request_key.h"
#include "src/util/timer.h"

namespace mudb::service {

namespace {

// Cache sizing. An entry is ~100 bytes, so each cache stays around half a
// megabyte.
constexpr size_t kBodyCacheCapacity = 4096;
constexpr size_t kResultCacheCapacity = 4096;

// Short stable prefix of a request signature ("req:9f3a6b21"): enough bits
// to name a request in a trace or an error message without printing all
// 128. The signature is a pure function of the request, so the prefix is
// greppable across runs.
std::string SignaturePrefix(const convex::CanonicalBodyKey& key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "req:%08x",
                static_cast<unsigned>(key.fp.hi >> 32));
  return buf;
}

// Prepends "[req:<prefix>] " to a failing status's message, keeping the
// code, so one bad request in a batch of dozens is attributable from its
// status alone.
util::Status AnnotateRequestError(util::Status status,
                                  const convex::CanonicalBodyKey& signature) {
  if (status.ok()) return status;
  return util::Status(status.code(), "[" + SignaturePrefix(signature) + "] " +
                                         status.message());
}

}  // namespace

MeasureService::MeasureService(const ServiceOptions& options)
    : pool_(util::ThreadPool::ResolveThreadCount(options.num_threads)),
      body_cache_(kBodyCacheCapacity),
      result_cache_(kResultCacheCapacity) {}

util::StatusOr<measure::MeasureResult> MeasureService::Process(
    const MeasureRequest& request, BatchStats* stats) {
  obs::Span span("service.process");
  ++stats->requests;

  // Validate the error-model knobs before memo lookups: a degenerate ε/δ
  // must fail byte-identically on the service and direct paths.
  MUDB_RETURN_IF_ERROR(measure::ValidateMeasureOptions(request.options));
  if (!request.formula.has_value()) {
    return util::Status::InvalidArgument("MeasureRequest needs a formula");
  }
  const constraints::RealFormula& formula = *request.formula;

  // Result memo: a repeated request replays its result without sampling.
  // The signature covers everything the result depends on (request_key.h),
  // so a hit is bit-identical to re-execution.
  convex::CanonicalBodyKey signature =
      RequestSignature(formula, request.options);
  if (std::optional<measure::MeasureResult> memo =
          result_cache_.Lookup(signature)) {
    ++stats->request_cache_hits;
    if (span.recording()) {
      span.Annotate("cache", "hit");
      span.Annotate("key_prefix", SignaturePrefix(signature));
    }
    return *memo;
  }
  if (span.recording()) {
    span.Annotate("cache", "miss");
    span.Annotate("key_prefix", SignaturePrefix(signature));
  }

  // Execute with the service's pool and body cache plugged in (caller
  // overrides win: a request carrying its own pool/cache keeps it).
  measure::MeasureOptions opts = request.options;
  if (opts.pool == nullptr) opts.pool = &pool_;
  if (opts.body_cache == nullptr) opts.body_cache = &body_cache_;
  util::StatusOr<measure::MeasureResult> result = ComputeNu(formula, opts);
  if (!result.ok()) {
    // "[req:9f3a6b21] <engine message>".
    return AnnotateRequestError(result.status(), signature);
  }
  stats->body_cache_hits += result->body_cache_hits;
  stats->bodies += result->bodies;
  stats->unique_bodies += result->unique_bodies;
  stats->sampling_steps += result->sampling_steps;
  stats->samples += result->samples;
  result_cache_.Insert(signature, *result);
  return result;
}

MeasureService::BatchOutcome MeasureService::RunBatch(
    std::vector<MeasureRequest> requests) {
  // One batch at a time: its estimators share pool_, which admits one
  // ParallelFor submitter at a time (util/thread_pool.h).
  std::lock_guard<std::mutex> lock(mu_);
  obs::Span span("service.batch");
  if (span.recording()) {
    span.Annotate("requests", static_cast<double>(requests.size()));
  }
  util::WallTimer timer;
  BatchOutcome outcome;
  outcome.results.reserve(requests.size());
  for (const MeasureRequest& request : requests) {
    outcome.results.push_back(Process(request, &outcome.stats));
  }
  outcome.stats.wall_ms = timer.ElapsedMillis();
  outcome.trace_id = span.context().trace_id;
  if (span.recording()) {
    span.Annotate("cache_hits",
                  static_cast<double>(outcome.stats.request_cache_hits));
    span.Annotate("sampling_steps",
                  static_cast<double>(outcome.stats.sampling_steps));
  }

  const BatchStats& s = outcome.stats;
  lifetime_.requests += s.requests;
  lifetime_.request_cache_hits += s.request_cache_hits;
  lifetime_.body_cache_hits += s.body_cache_hits;
  lifetime_.bodies += s.bodies;
  lifetime_.unique_bodies += s.unique_bodies;
  lifetime_.sampling_steps += s.sampling_steps;
  lifetime_.samples += s.samples;
  lifetime_.wall_ms += s.wall_ms;
  return outcome;
}

BatchStats MeasureService::lifetime_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_;
}

}  // namespace mudb::service
