// --trace=<path> / --metrics=<path> support for the bench binaries
// (bench_service, bench_ranking, bench_rerank).
//
// --trace=<path>   enables span recording for the whole run and writes the
//                  Chrome trace_event JSON on exit (open in
//                  chrome://tracing or Perfetto).
// --metrics=<path> writes the global MetricsRegistry snapshot on exit
//                  (tools/metrics_summary.py pretty-prints it).
//
// Tracing never perturbs results — the benches' bit-identity asserts run
// with these flags active, so a traced run is also a determinism check.

#ifndef MUDB_BENCH_BENCH_OBS_H_
#define MUDB_BENCH_BENCH_OBS_H_

#include <cstring>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mudb::bench {

struct ObsFlags {
  std::string trace_path;
  std::string metrics_path;
};

/// Parses --trace= / --metrics= and enables tracing when a trace path was
/// given. Call once at the top of main().
inline ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      flags.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      flags.metrics_path = argv[i] + 10;
    }
  }
  if (!flags.trace_path.empty()) obs::EnableTracing();
  return flags;
}

/// Writes whichever outputs were requested; returns false (with a note on
/// stderr, from the writers) if any write failed. Call once before exit.
inline bool WriteObsOutputs(const ObsFlags& flags) {
  bool ok = true;
  if (!flags.trace_path.empty()) {
    obs::DisableTracing();
    ok = obs::WriteChromeTrace(flags.trace_path) && ok;
  }
  if (!flags.metrics_path.empty()) {
    ok = obs::MetricsRegistry::Global().WriteJsonFile(flags.metrics_path) &&
         ok;
  }
  return ok;
}

}  // namespace mudb::bench

#endif  // MUDB_BENCH_BENCH_OBS_H_
