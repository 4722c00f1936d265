#include "src/volume/union_volume.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "src/convex/batch_sampler.h"
#include "src/convex/volume.h"
#include "src/obs/trace.h"

namespace mudb::volume {

namespace {

// Chunk grid for the Karp–Luby loop: each chunk owns private hit-and-run
// chains (one per body it actually picks, burn-in included), so chunks must
// be large enough to amortize those burn-ins over their samples. A function
// of the budget and body count only — never the thread count.
int NumChunks(int num_samples, int num_bodies) {
  int min_chunk_samples = std::max(256, 20 * num_bodies);
  return std::clamp(num_samples / min_chunk_samples, 1, 64);
}

}  // namespace

util::StatusOr<UnionVolumeResult> EstimateUnionVolume(
    const std::vector<SeededBody>& bodies, const UnionVolumeOptions& options,
    util::Rng& rng) {
  UnionVolumeResult result;
  if (bodies.empty()) return result;
  const int m = static_cast<int>(bodies.size());
  // Forked exactly once, up front, whatever the dedup/cache outcome: the
  // caller-visible rng consumption must not depend on batch composition.
  util::Rng base = rng.Fork();

  // Canonical dedup: identical bodies collapse onto their first occurrence.
  // `uniq` holds first-occurrence input indices in input order, so the
  // deduped body list — and everything derived from it — is independent of
  // how many duplicates follow.
  std::vector<int> uniq;
  std::vector<int> uniq_of(m, -1);  // input index -> index into `uniq`
  std::vector<convex::CanonicalBodyKey> uniq_key;
  {
    std::unordered_map<convex::CanonicalBodyKey, int,
                       convex::CanonicalBodyKey::Hash>
        seen;
    seen.reserve(m);
    for (int i = 0; i < m; ++i) {
      convex::CanonicalBodyKey key = CanonicalizeBody(bodies[i].body);
      auto [it, inserted] =
          seen.emplace(key, static_cast<int>(uniq.size()));
      if (inserted) {
        uniq.push_back(i);
        uniq_key.push_back(key);
      }
      uniq_of[i] = it->second;
    }
  }
  const int u = static_cast<int>(uniq.size());
  result.unique_bodies = u;

  // Per-unique-body volume estimates. Each estimate draws from the RNG
  // stream owned by its (body × tier) key — a pure function of content, so
  // an external cache hit replays exactly what recomputation would produce.
  // The bodies run sequentially — EstimateVolume itself fans each annealing
  // phase out on the pool, which keeps the parallelism flat (no nested
  // ParallelFor) while saturating the workers even for a single body.
  convex::VolumeOptions body_options;
  body_options.epsilon = options.epsilon;
  body_options.pool = options.pool;
  std::vector<double> uniq_volume(u);
  double total = 0.0;
  for (int s = 0; s < u; ++s) {
    // The cache key pins everything the estimate is bitwise a function of:
    // the canonical content, the raw representation of the body actually
    // walked (row order perturbs LP-seeded inner balls; rescaling perturbs
    // chord arithmetic), the ε tier, and the caller's seed path (base is a
    // pure function of the caller rng — so distinct seeds keep distinct
    // sample paths while same-seed calls, the serving layer's batches,
    // share).
    const SeededBody& rep = bodies[uniq[s]];
    convex::CanonicalBodyKey tier_key = convex::CombineKeyWithParams(
        uniq_key[s],
        convex::RawBodyFingerprint(rep.body, rep.inner.center,
                                   rep.inner.radius, rep.outer_radius_bound),
        options.epsilon, base.seed());
    // Phase-level span: one per unique body, annotated with the cache
    // outcome — never inside the sampling loops.
    obs::Span body_span("volume.body_estimate");
    std::optional<CachedBodyEstimate> cached;
    if (options.body_cache != nullptr) {
      cached = options.body_cache->Lookup(tier_key);
    }
    if (cached.has_value()) {
      uniq_volume[s] = cached->volume;
      ++result.body_cache_hits;
      if (body_span.recording()) {
        body_span.Annotate("cache", "hit");
        body_span.Annotate("steps_saved", static_cast<double>(cached->steps));
      }
    } else {
      if (body_span.recording()) body_span.Annotate("cache", "miss");
      util::Rng body_rng = convex::RngForKey(tier_key);
      convex::VolumeEstimate est = convex::EstimateVolume(
          rep.body, rep.inner, rep.outer_radius_bound, body_options, body_rng);
      uniq_volume[s] = est.volume;
      result.steps += est.steps;
      if (options.body_cache != nullptr) {
        options.body_cache->Insert(
            tier_key, CachedBodyEstimate{est.volume, est.steps, est.phases});
      }
    }
    total += uniq_volume[s];
  }
  result.body_volumes.resize(m);
  for (int i = 0; i < m; ++i) {
    result.body_volumes[i] = uniq_volume[uniq_of[i]];
  }
  if (total <= 0.0) return result;

  // A one-body union needs no Karp–Luby correction: m(x) = 1 for every
  // sample, so the loop would estimate exactly 1 at full sampling cost.
  if (u == 1) {
    result.volume = uniq_volume[0];
    return result;
  }

  // Cumulative distribution for unique-body selection proportional to
  // volume.
  std::vector<double> cdf(u);
  double acc = 0.0;
  for (int s = 0; s < u; ++s) {
    acc += uniq_volume[s];
    cdf[s] = acc / total;
  }

  const int walk = 4 * bodies[0].body.dim();
  const int num_samples = static_cast<int>(std::clamp(
      12.0 * u / (options.epsilon * options.epsilon), 1000.0, 2000000.0));

  const int chunks = NumChunks(num_samples, u);
  // Chunks route through the batched kernel in fixed power-of-two groups:
  // chunk c is always lane (c − first) of its group's per-body kernels and
  // every one of its draws — picks, burn-ins, walks — comes from substream
  // Split(c) in the scalar loop's order, so partial[c] is bit-identical to
  // the scalar chunk at any group width and any thread count.
  const std::vector<convex::ChainGroup> groups =
      convex::PartitionChainGrid(chunks);
  std::vector<double> partial(chunks);
  std::vector<int64_t> chunk_steps(chunks);
  auto run_group = [&](int64_t g) {
    const int first = groups[g].first;
    const int width = groups[g].width;
    std::vector<util::Rng> lane_rng;
    lane_rng.reserve(width);
    std::vector<int> samples(width);
    int max_samples = 0;
    for (int l = 0; l < width; ++l) {
      const int c = first + l;
      lane_rng.emplace_back(base.Split(c));
      samples[l] = num_samples / chunks + (c < num_samples % chunks ? 1 : 0);
      max_samples = std::max(max_samples, samples[l]);
    }
    // One kernel per unique body, created on first pick; its lanes persist
    // (warm) across the group's samples, initialized lazily so a chunk only
    // pays burn-in for bodies it actually picks — exactly the scalar loop's
    // lazily created per-chunk samplers, K chunks at a time.
    std::vector<std::unique_ptr<convex::BatchedHitAndRunSampler>> samplers(u);
    std::vector<double> sum_inv(width, 0.0);
    std::vector<int64_t> steps(width, 0);
    std::vector<int> pick(width);
    std::vector<int> member(width);
    std::vector<util::Rng*> member_rng(width);
    geom::Vec x;
    for (int s = 0; s < max_samples; ++s) {
      for (int l = 0; l < width; ++l) {
        if (s >= samples[l]) {
          pick[l] = -1;  // this chunk's budget is spent; lane sits out
          continue;
        }
        double pick_u = lane_rng[l].Uniform01();
        int p = static_cast<int>(
            std::lower_bound(cdf.begin(), cdf.end(), pick_u) - cdf.begin());
        pick[l] = std::min(p, u - 1);
      }
      // The lanes that picked body b this round walk it in lockstep: the
      // pick partitions the group, so each lane walks exactly once.
      for (int b = 0; b < u; ++b) {
        int count = 0;
        for (int l = 0; l < width; ++l) {
          if (pick[l] == b) {
            member[count] = l;
            member_rng[count] = &lane_rng[l];
            ++count;
          }
        }
        if (count == 0) continue;
        const SeededBody& picked = bodies[uniq[b]];
        if (samplers[b] == nullptr) {
          samplers[b] = std::make_unique<convex::BatchedHitAndRunSampler>(
              &picked.body, width);
        }
        for (int idx = 0; idx < count; ++idx) {
          const int l = member[idx];
          if (!samplers[b]->lane_initialized(l)) {
            samplers[b]->ResetLane(l, picked.inner.center);
            samplers[b]->WalkLanes(10 * walk, &member[idx], 1,
                                   &member_rng[idx]);  // burn-in
            steps[l] += 10 * walk;
          }
        }
        samplers[b]->WalkLanes(walk, member.data(), count, member_rng.data());
        for (int idx = 0; idx < count; ++idx) {
          const int l = member[idx];
          steps[l] += walk;
          samplers[b]->GetCurrent(l, &x);
          // m(x) over *unique* members: the union is a set, so duplicates
          // must not inflate the ownership count (nor cost Contains scans).
          int owners = 0;
          for (int j = 0; j < u; ++j) {
            if (uniq_volume[j] > 0 && bodies[uniq[j]].body.Contains(x)) {
              ++owners;
            }
          }
          // x came from body b, so owners >= 1 (up to numerical tolerance).
          owners = std::max(owners, 1);
          sum_inv[l] += 1.0 / owners;
        }
      }
    }
    for (int l = 0; l < width; ++l) {
      partial[first + l] = sum_inv[l];
      chunk_steps[first + l] = steps[l];
    }
  };
  {
    obs::Span kl_span("volume.karp_luby");
    if (kl_span.recording()) {
      kl_span.Annotate("samples", static_cast<double>(num_samples));
      kl_span.Annotate("chunks", static_cast<double>(chunks));
      kl_span.Annotate("unique_bodies", static_cast<double>(u));
    }
    util::ThreadPool::RunGrid(options.pool, static_cast<int>(groups.size()),
                              run_group);
  }
  // Fixed-order reduction: float addition is not associative, so summing in
  // chunk order is what makes the estimate independent of scheduling.
  double sum_inv = 0.0;
  for (int c = 0; c < chunks; ++c) {
    sum_inv += partial[c];
    result.steps += chunk_steps[c];
  }
  result.volume = total * sum_inv / num_samples;
  return result;
}

}  // namespace mudb::volume
