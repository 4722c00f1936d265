// Per-layer accounting for mudb-bench's traced pass.
//
// After every traced op mudb_bench collects the op's spans and folds them
// into per-layer self time: a span's duration minus the part of it that its
// child spans cover. Layers are module names. The bench's own spans
// (bench.*, opened around each public call) and the spans already inside the
// program (service.*, ranking.*, measure.compute, afpras.*, fpras.*,
// volume.*) map onto them by name; see LayerOf in layers.cc. Pool workers run
// in parallel, so self times can sum to more than the op's wall time.

#ifndef MUDB_BENCH_E2E_LAYERS_H_
#define MUDB_BENCH_E2E_LAYERS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"

namespace mudb::bench {

enum class Layer {
  kBench,        // bench.op minus its children: the harness residual
  kSql,          // bench.sql.parse
  kEngine,       // bench.engine.eval
  kModel,        // bench.model.apply
  kService,      // bench.service.*, service.*, ranking.*
  kMeasure,      // measure.compute (engine dispatch)
  kAfpras,       // afpras.estimate
  kFprasBodies,  // fpras.build_bodies (DNF -> cones, inner-ball LPs)
  kFprasUnion,   // fpras.union_estimate minus its volume children
  kConvex,       // volume.anneal_phase (annealed hit-and-run phases)
  kVolumeBody,   // volume.body_estimate minus its phases
  kKarpLuby,     // volume.karp_luby
  kOther,        // anything else (none expected)
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kOther) + 1;

/// One op's spans, folded.
struct OpTrace {
  std::array<double, kNumLayers> self_ms{};
  int64_t spans = 0;
  /// Durations of the bench's spans around public calls (0 when absent).
  double op_ms = 0.0;
  double parse_ms = 0.0;
  double eval_ms = 0.0;
  double service_call_ms = 0.0;
  /// Σ afpras.estimate and Σ (anneal + Karp–Luby) durations, the busy
  /// time behind the samples/s and steps/s rates.
  double afpras_ms = 0.0;
  double walk_ms = 0.0;
};

/// Folds the spans of one op (everything recorded since the last
/// obs::ClearTraces) into per-layer self time.
OpTrace FoldSpans(const std::vector<obs::SpanRecord>& spans);

}  // namespace mudb::bench

#endif  // MUDB_BENCH_E2E_LAYERS_H_
