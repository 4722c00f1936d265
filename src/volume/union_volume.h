// FPRAS for the volume of a union of convex bodies (Thm. 7.1's geometric
// core; the role played by Bringmann–Friedrich [9] in the paper).
//
// Karp–Luby estimator: with per-body volume estimates V_i and uniform
// samplers, sample a body with probability V_i / ΣV, draw x uniformly from
// it, and average 1/m(x) where m(x) = #{j : x ∈ X_j}. Then
//     Vol(∪X_i) = (Σ V_i) · E[1/m(x)],
// and since E[1/m] >= 1/#bodies, O(#bodies / ε²) samples give a relative
// (1 ± ε) estimate with constant probability.
//
// Dedup and caching: input bodies are canonicalized (convex/canonical.h)
// and identical bodies collapse — each *unique* body is estimated and
// walked once, and m(x) counts unique members (the union is a set, so the
// estimate is unchanged while the duplicated sampling and Contains work
// disappears). A single-body union needs no Karp–Luby correction at all.
// Per-unique-body volume estimation draws from an RNG stream derived from
// the body's cache key — canonical content, the raw representation actually
// walked (convex::RawBodyFingerprint), the estimation parameters, and the
// forked call rng's identity — never from a positional index. An estimate
// is therefore a bitwise-pure function of its cache key, which is what
// makes estimates shareable through the optional BodyEstimateCache across
// calls with equal seeds (the serving layer's batches): a cache hit returns
// bit-exactly what recomputation would, for any batch composition, while
// distinct seeds still produce distinct sample paths (see src/service/).
//
// Parallel runtime: the call forks the caller's rng once and the Karp–Luby
// loop is carved into a fixed chunk grid — a function of the sample budget
// and unique-body count only — where chunk c draws everything (body picks
// and walks) from Split(c), and the partial sums are reduced in chunk
// order. Chunks walk their picked bodies K at a time through the vectorized
// lockstep kernel (convex/batch_sampler.h), grouped by
// convex::PartitionChainGrid; chunk c is always lane (c − group first) and
// every lane is bit-identical to a scalar chain on chunk c's substream, so
// estimates are bit-identical for any group width and any pool size.

#ifndef MUDB_SRC_VOLUME_UNION_VOLUME_H_
#define MUDB_SRC_VOLUME_UNION_VOLUME_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/convex/body.h"
#include "src/convex/canonical.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::volume {

/// A body-volume estimate as stored by an external cache.
struct CachedBodyEstimate {
  double volume = 0.0;
  /// Hit-and-run steps the original estimation cost (what a hit saves).
  int64_t steps = 0;
  /// Annealing phases of the original estimation.
  int phases = 0;
};

/// Cross-call cache of per-body volume estimates, keyed by canonical body
/// key × raw representation × estimation tier × seed path (the key passed
/// in is already the combination, see convex::CombineKeyWithParams).
/// Implementations must be safe for concurrent Lookup/Insert; the concrete
/// LRU lives in src/service/estimate_cache.h. Because estimates
/// are pure functions of their key, a Lookup hit is bit-identical to
/// recomputation — a cache can only save work, never change a result.
class BodyEstimateCache {
 public:
  virtual ~BodyEstimateCache() = default;
  virtual std::optional<CachedBodyEstimate> Lookup(
      const convex::CanonicalBodyKey& key) = 0;
  virtual void Insert(const convex::CanonicalBodyKey& key,
                      const CachedBodyEstimate& estimate) = 0;
};

struct UnionVolumeOptions {
  /// Target relative accuracy, of the union and of every per-body volume
  /// estimate (convex::VolumeOptions::epsilon). The Karp–Luby loop draws
  /// 12·(unique bodies)/ε² samples (clamped to [1000, 2000000]), one every
  /// 4·dim hit-and-run steps.
  double epsilon = 0.1;
  /// Optional worker pool for the per-body annealing phases and the
  /// Karp–Luby chunk groups; nullptr runs them inline. Any pool size yields
  /// the identical estimate.
  util::ThreadPool* pool = nullptr;
  /// Optional cross-call estimate cache (not owned). Hits skip a body's
  /// sampling entirely and are bit-identical to recomputation.
  BodyEstimateCache* body_cache = nullptr;
};

struct UnionVolumeResult {
  double volume = 0.0;
  /// Per-input-body volume estimates (duplicates share their unique body's
  /// estimate; 0 for bodies with empty interior).
  std::vector<double> body_volumes;
  /// Total hit-and-run steps actually taken by this call (annealing phases
  /// + Karp–Luby walks; cache hits contribute nothing). The numerator of
  /// the steps/s throughput that mudb-bench and bench_micro report.
  int64_t steps = 0;
  /// Distinct bodies after canonical dedup.
  int unique_bodies = 0;
  /// Unique-body estimates served by options.body_cache.
  int64_t body_cache_hits = 0;
};

/// A body together with its inner ball (bodies without one have volume 0 and
/// may simply be omitted by the caller).
struct SeededBody {
  convex::ConvexBody body;
  convex::InnerBall inner;
  /// Radius bound: body ⊆ B(inner.center, outer_radius_bound).
  double outer_radius_bound;
};

/// Estimates Vol(X_1 ∪ ... ∪ X_m). Empty input yields 0. Advances `rng` by
/// one draw (Rng::Fork) for the Karp–Luby stage: repeated calls with one Rng
/// see fresh union samples, while a fresh same-seeded Rng reproduces the
/// estimate bit-exactly, independent of the pools and of the cache state.
util::StatusOr<UnionVolumeResult> EstimateUnionVolume(
    const std::vector<SeededBody>& bodies, const UnionVolumeOptions& options,
    util::Rng& rng);

}  // namespace mudb::volume

#endif  // MUDB_SRC_VOLUME_UNION_VOLUME_H_
