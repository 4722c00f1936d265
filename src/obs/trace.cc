#include "src/obs/trace.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "src/obs/clock.h"

namespace mudb::obs {

namespace {

/// Cap per thread buffer. At ~200 bytes a span this bounds a runaway
/// recording to a few tens of MB per thread; excess spans are counted,
/// never blocked on.
constexpr size_t kMaxEventsPerThread = 1 << 17;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<int64_t> g_dropped{0};

struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;  // guarded by mu
};

// Registry of every thread's buffer. shared_ptr keeps a buffer alive after
// its thread exits, so CollectSpans never races thread teardown.
struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by mu
};

BufferRegistry& Registry() {
  static BufferRegistry* r = new BufferRegistry();
  return *r;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// The ambient context: written only by Span ctor/dtor and ScopedContext
// on the owning thread.
thread_local SpanContext t_current;

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_release); }

void DisableTracing() { g_enabled.store(false, std::memory_order_release); }

bool TracingEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void ClearTraces() {
  BufferRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    b->spans.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  BufferRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::vector<SpanRecord> CollectTrace(uint64_t trace_id) {
  std::vector<SpanRecord> all = CollectSpans();
  std::vector<SpanRecord> out;
  for (auto& s : all) {
    if (s.trace_id == trace_id) out.push_back(std::move(s));
  }
  return out;
}

int64_t DroppedSpanCount() {
  return g_dropped.load(std::memory_order_relaxed);
}

SpanContext CurrentContext() { return t_current; }

ScopedContext::ScopedContext(const SpanContext& ctx) {
  if (!ctx.valid()) return;
  saved_ = t_current;
  t_current = ctx;
  adopted_ = true;
}

ScopedContext::~ScopedContext() {
  if (adopted_) t_current = saved_;
}

Span::Span(const char* name) : name_(name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  recording_ = true;
  saved_ = t_current;
  ctx_.trace_id = saved_.valid()
                      ? saved_.trace_id
                      : g_next_trace_id.fetch_add(
                            1, std::memory_order_relaxed);
  ctx_.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  t_current = ctx_;
  start_nanos_ = Clock::NowNanos();
}

Span::~Span() {
  if (!recording_) return;
  const int64_t end = Clock::NowNanos();
  t_current = saved_;
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.spans.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord rec;
  rec.name = name_;
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_id = saved_.valid() ? saved_.span_id : 0;
  rec.start_nanos = start_nanos_;
  rec.end_nanos = end;
  rec.annotations = std::move(annotations_);
  buffer.spans.push_back(std::move(rec));
}

void Span::Annotate(const char* key, double value) {
  if (!recording_) return;
  SpanRecord::Annotation a;
  a.key = key;
  a.num_value = value;
  a.is_numeric = true;
  annotations_.push_back(std::move(a));
}

void Span::Annotate(const char* key, const std::string& value) {
  if (!recording_) return;
  SpanRecord::Annotation a;
  a.key = key;
  a.str_value = value;
  annotations_.push_back(std::move(a));
}

void Span::Annotate(const char* key, const char* value) {
  Annotate(key, std::string(value));
}

}  // namespace mudb::obs
