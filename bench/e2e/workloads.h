// The four mudb-bench workloads. Each is a closed loop with one client:
// mudb_bench issues op i+1 only after op i has returned its final answer set.
// An op starts from SQL text and ends with ranked or measured answers; the
// program only ever sees the generated database and that text. Workload
// inputs (database, constants, Zipf draws, refinements) are pure functions
// of the seed and the op index. README.md says why each workload exists.

#ifndef MUDB_BENCH_E2E_WORKLOADS_H_
#define MUDB_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/service/measure_service.h"
#include "src/util/fingerprint.h"
#include "src/util/status.h"

namespace mudb::bench {

/// Exact counts one op produced, read from public results and accessors
/// (EvalResult, MeasureResult, BatchStats, RerankOutcome).
struct OpCounts {
  int64_t witnesses = 0;            // EvalResult::witnesses_enumerated
  int64_t candidates = 0;           // candidate answers evaluated
  int64_t candidate_witnesses = 0;  // Σ Candidate::witnesses
  int64_t uncertain = 0;            // candidates not certain outright
  int64_t results = 0;              // measure results returned
  int64_t exact_results = 0;        // ... of which exact
  int64_t samples = 0;              // AFPRAS samples drawn (executed only)
  int64_t requests = 0;             // service requests executed
  int64_t request_hits = 0;         // ... served by the request memo
  int64_t bodies = 0;               // FPRAS bodies before dedup
  int64_t unique_bodies = 0;        // ... after dedup
  int64_t body_hits = 0;            // unique bodies served by the cache
  int64_t steps = 0;                // hit-and-run steps sampled
  int64_t tiers = 0;                // ranking tiers walked
  int64_t evaluations = 0;          // ranking tier evaluations
  int64_t warm_hits = 0;            // ... served by the session memo
  int64_t pruned = 0;               // ranked candidates pruned early
  int64_t invalidated = 0;          // session candidates invalidated

  void Add(const OpCounts& o);
};

struct OpOutcome {
  /// Non-OK when any call of the op returned a non-OK Status; such an op
  /// counts as failed and is not timed.
  util::Status status;
  /// Fingerprint of the op's result bits (values, intervals, rankings).
  util::Fingerprint128 digest;
  OpCounts counts;
};

struct WorkloadConfig {
  uint64_t seed = 1;
  /// Tiny databases, for the seconds-long harness self-check.
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the database, constructs the service and runs the warm-up
  /// ops: everything mudb_bench times as set-up.
  virtual util::Status Setup() = 0;
  /// Runs op `index`. Ops must be issued in order 0, 1, 2, ...
  virtual OpOutcome RunOp(int64_t index) = 0;
  /// Correctness gates over every op run so far; appends one line per
  /// failed gate.
  virtual void Verify(std::vector<std::string>* failures) = 0;
  /// Workload-specific numbers for the full report.
  virtual std::vector<std::pair<std::string, double>> Extras() const {
    return {};
  }

  double datagen_seconds() const { return datagen_seconds_; }
  /// Lifetime body-cache evictions of the workload's long-lived service.
  int64_t body_cache_evictions() const {
    return service_ ? service_->body_cache_stats().evictions : 0;
  }

 protected:
  /// The long-lived service every op talks to: two pool workers, so the
  /// main thread, the dispatcher and the pool fit in four cores.
  void MakeService();

  std::unique_ptr<service::MeasureService> service_;
  double datagen_seconds_ = 0.0;
  /// Per-op gate failures, reported by Verify.
  std::vector<std::string> gate_failures_;
};

/// How much a workload runs. A pass runs whole blocks of consecutive ops,
/// and every block has the same op mix. The op count depends only on the
/// workload and the pass length asked for, never on how fast the machine
/// runs.
struct WorkloadSpec {
  const char* name;
  int64_t block_ops;     // ops per block
  double block_seconds;  // nominal wall time of one block
};

/// The workloads mudb_bench accepts.
const std::vector<WorkloadSpec>& WorkloadSpecs();

/// Ops in a pass of `seconds`: the whole blocks that fill `seconds` at the
/// nominal block time, rounded to the nearest, but at least enough blocks
/// for `min_ops` ops.
int64_t PassOps(const WorkloadSpec& spec, double seconds, int64_t min_ops);

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace mudb::bench

#endif  // MUDB_BENCH_E2E_WORKLOADS_H_
