// Per-request tracing for the serving stack: RAII spans over thread-local
// append-only buffers, assembled into span trees ("flight recordings").
//
// Model:
//   * A Span covers one timed region. Constructing it reads the thread's
//     current SpanContext as the parent and installs itself as current;
//     destruction stamps the end tick and restores the parent. The first
//     span on a causal chain (no current context) allocates a fresh
//     trace_id — that id names the whole per-request tree.
//   * Context crosses threads explicitly, never ambiently: capture
//     CurrentContext() into the job/request struct at submit time, and
//     adopt it on the worker with ScopedContext. ThreadPool does this;
//     nothing else needs to.
//   * Annotations are key/value pairs on the active span — cache hit/miss
//     with the request's signature prefix, batch sizes, sampling steps,
//     ε-tier transitions. Numeric values are stored as doubles; everything
//     else as strings.
//
// Hot-path cost: when tracing is disabled (the default), the Span
// constructor is one relaxed atomic load and two pointer-sized stores; no
// clock read, no allocation, no lock. When enabled, finishing a span
// appends one record to a thread-local buffer under that buffer's mutex
// (uncontended except against a concurrent export). Buffers are owned by
// shared_ptr and registered globally, so spans survive thread exit and the
// collector never races a detaching thread.
//
// Determinism contract (hard-asserted by obs_test): spans draw no RNG,
// never feed a work grid, and carry no result data — enabling or disabling
// tracing leaves every service result bit-identical. The buffer cap
// (kMaxEventsPerThread) drops excess spans and counts them; it never blocks
// the recording thread.

#ifndef MUDB_SRC_OBS_TRACE_H_
#define MUDB_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mudb::obs {

/// Identifies a position in a span tree. id 0 means "none".
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return span_id != 0; }
};

/// One finished span, as exported.
struct SpanRecord {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  // Annotation payload. Numeric annotations keep the double; string
  // annotations leave is_numeric false.
  struct Annotation {
    std::string key;
    std::string str_value;
    double num_value = 0.0;
    bool is_numeric = false;
  };
  std::vector<Annotation> annotations;

  double DurationMillis() const { return (end_nanos - start_nanos) * 1e-6; }
};

/// Turns span recording on/off process-wide. Off by default; mudb-bench's
/// traced pass turns it on, tests toggle it around the region under test.
void EnableTracing();
void DisableTracing();
bool TracingEnabled();

/// Drops all recorded spans (and the dropped-span count). Does not touch
/// enablement or live spans.
void ClearTraces();

/// Spans recorded so far whose end tick has been stamped, in per-thread
/// recording order (stable given the same execution). All traces, or one.
std::vector<SpanRecord> CollectSpans();
std::vector<SpanRecord> CollectTrace(uint64_t trace_id);

/// Spans dropped because a thread buffer hit kMaxEventsPerThread.
int64_t DroppedSpanCount();

/// The calling thread's current context (invalid if no span is active
/// and none was adopted).
SpanContext CurrentContext();

/// Adopts `ctx` as the thread's current context for the scope — the
/// cross-thread propagation primitive. Adopting an invalid context is a
/// no-op (spans then start fresh traces, same as an uninstrumented
/// caller).
class ScopedContext {
 public:
  explicit ScopedContext(const SpanContext& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
  bool adopted_ = false;
};

/// RAII timed region. `name` must outlive the span (string literals only —
/// dynamic names belong in annotations, keeping the constructor
/// allocation-free).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Annotate(const char* key, double value);
  void Annotate(const char* key, const std::string& value);
  void Annotate(const char* key, const char* value);

  /// This span's context — capture it to parent work on another thread.
  SpanContext context() const { return ctx_; }
  bool recording() const { return recording_; }

 private:
  const char* name_;
  SpanContext ctx_;
  SpanContext saved_;  // restored on destruction
  int64_t start_nanos_ = 0;
  std::vector<SpanRecord::Annotation> annotations_;
  bool recording_ = false;
};

}  // namespace mudb::obs

#endif  // MUDB_SRC_OBS_TRACE_H_
