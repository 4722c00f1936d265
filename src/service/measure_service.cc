#include "src/service/measure_service.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/service/service_errors.h"
#include "src/translate/ground.h"
#include "src/util/timer.h"

namespace mudb::service {

MeasureService::MeasureService(const ServiceOptions& options)
    : options_(options),
      pool_(options.pool),
      body_cache_(EstimateCache::Options{options.body_cache_capacity,
                                         options.cache_shards}),
      result_cache_(options.result_cache_capacity, options.cache_shards) {
  // Mirror the result-memo counters into the registry ("service.cache.*";
  // the body cache publishes "service.body_cache.*" from its own ctor).
  result_cache_.PublishMetrics("service.cache");
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::ResolveThreadCount(options.num_threads));
    pool_ = owned_pool_.get();
  }
  // mudb-lint: allow(no-raw-thread) -- the documented dispatcher site:
  // one long-lived control thread that only moves requests between
  // queues; all sampling work runs on the util::ThreadPool.
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

MeasureService::~MeasureService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
}

MeasureService::Ticket MeasureService::Submit(MeasureRequest request) {
  Job job;
  job.request = std::move(request);
  job.ctx = obs::CurrentContext();
  Ticket ticket = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
  return ticket;
}

void MeasureService::DispatcherLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: every submitted promise is
      // fulfilled before the destructor returns.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Adopt the submitter's context so per-request spans parent under the
    // batch/tier span that submitted them, across the dispatcher hop.
    obs::ScopedContext adopt(job.ctx);
    job.promise.set_value(Process(job.request));
  }
}

util::StatusOr<measure::MeasureResult> MeasureService::Process(
    MeasureRequest& request) {
  static obs::Counter* const m_requests =
      obs::MetricsRegistry::Global().counter("service.requests");
  static obs::Counter* const m_steps =
      obs::MetricsRegistry::Global().counter("service.sampling_steps");
  static obs::Counter* const m_samples =
      obs::MetricsRegistry::Global().counter("service.samples");
  static obs::Histogram* const m_request_ms =
      obs::MetricsRegistry::Global().histogram("service.request_ms");

  obs::Span span("service.process");
  const int64_t t0 = obs::Clock::NowNanos();
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  m_requests->Inc();

  // Validate the error-model knobs before grounding or memo lookups: a
  // degenerate ε/δ must fail byte-identically on the service and direct
  // paths.
  MUDB_RETURN_IF_ERROR(measure::ValidateMeasureOptions(request.options));

  // Resolve the formula: ground the query form first (Prop. 5.3).
  const constraints::RealFormula* formula = nullptr;
  translate::GroundResult ground;
  if (request.formula.has_value()) {
    formula = &*request.formula;
  } else {
    if (request.query == nullptr || request.db == nullptr) {
      return util::Status::InvalidArgument(
          "MeasureRequest needs a formula or a (query, db, candidate)");
    }
    translate::GroundOptions gopts;
    gopts.max_atoms = request.options.max_ground_atoms;
    obs::Span ground_span("service.ground");
    MUDB_ASSIGN_OR_RETURN(
        ground, translate::GroundQuery(*request.query, *request.db,
                                       request.candidate, gopts));
    formula = &ground.formula;
  }

  // Result memo: a repeated request replays its result without sampling.
  // The signature covers everything the result depends on (request_key.h),
  // so a hit is bit-identical to re-execution.
  convex::CanonicalBodyKey signature =
      RequestSignature(*formula, request.options);
  // The memo Lookup itself publishes service.cache.hit / .miss.
  if (std::optional<MemoEntry> memo = result_cache_.Lookup(signature)) {
    total_request_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (span.recording()) {
      span.Annotate("cache", "hit");
      span.Annotate("key_prefix", SignaturePrefix(signature));
    }
    m_request_ms->Observe(
        obs::Clock::NanosToMillis(obs::Clock::NowNanos() - t0));
    return memo->result;
  }
  if (span.recording()) {
    span.Annotate("cache", "miss");
    span.Annotate("key_prefix", SignaturePrefix(signature));
  }

  // Execute with the service's pool and body cache plugged in (caller
  // overrides win: a request carrying its own pool/cache keeps it).
  measure::MeasureOptions opts = request.options;
  if (opts.pool == nullptr) opts.pool = pool_;
  if (opts.body_cache == nullptr) opts.body_cache = &body_cache_;
  util::StatusOr<measure::MeasureResult> result =
      ComputeNu(*formula, opts);
  if (!result.ok()) {
    // Execution failures name the request so one bad request in a batch of
    // dozens is attributable from its status alone:
    // "[req:9f3a6b21] <engine message>".
    return AnnotateRequestError(result.status(), signature);
  }
  total_body_cache_hits_.fetch_add(result->body_cache_hits,
                                   std::memory_order_relaxed);
  total_bodies_.fetch_add(result->bodies, std::memory_order_relaxed);
  total_unique_bodies_.fetch_add(result->unique_bodies,
                                 std::memory_order_relaxed);
  total_sampling_steps_.fetch_add(result->sampling_steps,
                                  std::memory_order_relaxed);
  total_samples_.fetch_add(result->samples, std::memory_order_relaxed);
  m_steps->Inc(result->sampling_steps);
  m_samples->Inc(result->samples);
  result_cache_.Insert(signature, MemoEntry{*result});
  m_request_ms->Observe(
      obs::Clock::NanosToMillis(obs::Clock::NowNanos() - t0));
  return result;
}

MeasureService::BatchOutcome MeasureService::RunBatch(
    std::vector<MeasureRequest> requests) {
  static obs::Histogram* const m_batch_ms =
      obs::MetricsRegistry::Global().histogram("service.batch_ms");
  obs::Span span("service.batch");
  if (span.recording()) {
    span.Annotate("requests", static_cast<double>(requests.size()));
  }
  util::WallTimer timer;
  BatchStats before = lifetime_stats();
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (MeasureRequest& request : requests) {
    tickets.push_back(Submit(std::move(request)));
  }
  BatchOutcome outcome;
  outcome.results.reserve(tickets.size());
  for (Ticket& ticket : tickets) {
    outcome.results.push_back(ticket.get());
  }
  BatchStats after = lifetime_stats();
  outcome.stats.requests = after.requests - before.requests;
  outcome.stats.request_cache_hits =
      after.request_cache_hits - before.request_cache_hits;
  outcome.stats.body_cache_hits =
      after.body_cache_hits - before.body_cache_hits;
  outcome.stats.bodies = after.bodies - before.bodies;
  outcome.stats.unique_bodies = after.unique_bodies - before.unique_bodies;
  outcome.stats.sampling_steps =
      after.sampling_steps - before.sampling_steps;
  outcome.stats.samples = after.samples - before.samples;
  outcome.stats.wall_ms = timer.ElapsedMillis();
  outcome.trace_id = span.context().trace_id;
  if (span.recording()) {
    span.Annotate("cache_hits",
                  static_cast<double>(outcome.stats.request_cache_hits));
    span.Annotate("sampling_steps",
                  static_cast<double>(outcome.stats.sampling_steps));
  }
  m_batch_ms->Observe(outcome.stats.wall_ms);
  return outcome;
}

BatchStats MeasureService::lifetime_stats() const {
  BatchStats s;
  s.requests = total_requests_.load(std::memory_order_relaxed);
  s.request_cache_hits =
      total_request_cache_hits_.load(std::memory_order_relaxed);
  s.body_cache_hits = total_body_cache_hits_.load(std::memory_order_relaxed);
  s.bodies = total_bodies_.load(std::memory_order_relaxed);
  s.unique_bodies = total_unique_bodies_.load(std::memory_order_relaxed);
  s.sampling_steps = total_sampling_steps_.load(std::memory_order_relaxed);
  s.samples = total_samples_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mudb::service
