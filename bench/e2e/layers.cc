#include "bench/e2e/layers.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>

namespace mudb::bench {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

Layer LayerOf(const std::string& name) {
  if (name == "bench.op") return Layer::kBench;
  if (name == "bench.sql.parse") return Layer::kSql;
  if (name == "bench.engine.eval") return Layer::kEngine;
  if (name == "bench.model.apply") return Layer::kModel;
  if (StartsWith(name, "bench.service.") || StartsWith(name, "service.") ||
      StartsWith(name, "ranking.")) {
    return Layer::kService;
  }
  if (name == "measure.compute") return Layer::kMeasure;
  if (name == "afpras.estimate") return Layer::kAfpras;
  if (name == "fpras.build_bodies") return Layer::kFprasBodies;
  if (name == "fpras.union_estimate") return Layer::kFprasUnion;
  if (name == "volume.anneal_phase") return Layer::kConvex;
  if (name == "volume.body_estimate") return Layer::kVolumeBody;
  if (name == "volume.karp_luby") return Layer::kKarpLuby;
  return Layer::kOther;
}

// Length of the union of `intervals` clipped to [lo, hi], in nanoseconds.
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>>& intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a >= b) continue;
    if (open && a <= run_hi) {
      run_hi = std::max(run_hi, b);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = a;
    run_hi = b;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return covered;
}

}  // namespace

OpTrace FoldSpans(const std::vector<obs::SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      children[s.parent_id].emplace_back(s.start_nanos, s.end_nanos);
    }
  }
  OpTrace trace;
  trace.spans = static_cast<int64_t>(spans.size());
  for (const obs::SpanRecord& s : spans) {
    int64_t self = s.end_nanos - s.start_nanos;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      self -= CoveredNanos(it->second, s.start_nanos, s.end_nanos);
    }
    const Layer layer = LayerOf(s.name);
    trace.self_ms[static_cast<int>(layer)] += self * 1e-6;
    const double ms = s.DurationMillis();
    if (s.name == "bench.op") {
      trace.op_ms += ms;
    } else if (s.name == "bench.sql.parse") {
      trace.parse_ms += ms;
    } else if (s.name == "bench.engine.eval") {
      trace.eval_ms += ms;
    } else if (StartsWith(s.name, "bench.service.")) {
      trace.service_call_ms += ms;
    } else if (layer == Layer::kAfpras) {
      trace.afpras_ms += ms;
    } else if (layer == Layer::kConvex || layer == Layer::kKarpLuby) {
      trace.walk_ms += ms;
    }
  }
  return trace;
}

}  // namespace mudb::bench
