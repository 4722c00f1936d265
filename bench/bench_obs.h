// --trace=<path> support for the bench binaries (bench_service,
// bench_ranking, bench_rerank).
//
// --trace=<path> enables span recording for the whole run and writes the
//                Chrome trace_event JSON on exit (open in chrome://tracing
//                or Perfetto).
//
// Tracing never perturbs results — the benches' bit-identity asserts run
// with the flag active, so a traced run is also a determinism check.

#ifndef MUDB_BENCH_BENCH_OBS_H_
#define MUDB_BENCH_BENCH_OBS_H_

#include <cstring>
#include <string>

#include "src/obs/trace.h"

namespace mudb::bench {

struct ObsFlags {
  std::string trace_path;
};

/// Parses --trace= and enables tracing when a trace path was given. Call
/// once at the top of main().
inline ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      flags.trace_path = argv[i] + 8;
    }
  }
  if (!flags.trace_path.empty()) obs::EnableTracing();
  return flags;
}

/// Writes the trace if one was requested; returns false (with a note on
/// stderr, from the writer) if the write failed. Call once before exit.
inline bool WriteObsOutputs(const ObsFlags& flags) {
  if (flags.trace_path.empty()) return true;
  obs::DisableTracing();
  return obs::WriteChromeTrace(flags.trace_path);
}

}  // namespace mudb::bench

#endif  // MUDB_BENCH_BENCH_OBS_H_
