#include "src/convex/batch_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace mudb::convex {

std::vector<ChainGroup> PartitionChainGrid(int chains) {
  std::vector<ChainGroup> groups;
  for (int first = 0; first < chains;) {
    int width = kBatchMaxLanes;
    while (width > chains - first) width >>= 1;
    groups.push_back({first, width});
    first += width;
  }
  return groups;
}

BatchedHitAndRunSampler::BatchedHitAndRunSampler(const ConvexBody* body,
                                                 int lanes)
    : body_(body), lanes_(lanes) {
  MUDB_CHECK(body_ != nullptr);
  MUDB_CHECK(lanes_ >= 1);
  const size_t k_lanes = static_cast<size_t>(lanes_);
  x_.assign(k_lanes * body_->dim(), 0.0);
  d_.assign(k_lanes * body_->dim(), 0.0);
  ax_.assign(k_lanes * body_->num_halfspaces(), 0.0);
  ad_.assign(k_lanes * body_->num_halfspaces(), 0.0);
  ball_bq_.assign(k_lanes * body_->num_balls(), 0.0);
  ball_dist2_.assign(k_lanes * body_->num_balls(), 0.0);
  lo_.resize(k_lanes);
  hi_.resize(k_lanes);
  t_.resize(k_lanes);
  alive_.assign(k_lanes, 0);
  bad_.assign(k_lanes, 0);
  initialized_.assign(k_lanes, 0);
  steps_since_refresh_.assign(k_lanes, 0);
  rng_ptrs_.resize(k_lanes);
  dense_lanes_.resize(k_lanes);
  for (int l = 0; l < lanes_; ++l) dense_lanes_[l] = l;
}

void BatchedHitAndRunSampler::ResetLane(int lane, const geom::Vec& start) {
  MUDB_CHECK(lane >= 0 && lane < lanes_);
  MUDB_CHECK(static_cast<int>(start.size()) == body_->dim());
  // An exterior point would silently freeze the chain (every chord
  // degenerate), so fail fast here instead.
  MUDB_CHECK(body_->Contains(start));
  const int n = body_->dim();
  const size_t stride = static_cast<size_t>(lanes_);
  for (int j = 0; j < n; ++j)
    x_[static_cast<size_t>(j) * stride + lane] = start[j];
  initialized_[lane] = 1;
  RefreshLane(lane);
}

void BatchedHitAndRunSampler::GetCurrent(int lane, geom::Vec* out) const {
  MUDB_DCHECK(lane >= 0 && lane < lanes_);
  MUDB_DCHECK(initialized_[lane]);
  const int n = body_->dim();
  const size_t stride = static_cast<size_t>(lanes_);
  out->resize(n);
  for (int j = 0; j < n; ++j) {
    (*out)[j] = x_[static_cast<size_t>(j) * stride + lane];
  }
}

void BatchedHitAndRunSampler::RefreshLane(int lane) {
  const int n = body_->dim();
  const int m = body_->num_halfspaces();
  const int k = body_->num_balls();
  const size_t stride = static_cast<size_t>(lanes_);
  const double* a = body_->halfspace_matrix();
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) {
      ax += row[j] * x_[static_cast<size_t>(j) * stride + lane];
    }
    ax_[static_cast<size_t>(i) * stride + lane] = ax;
  }
  const double* centers = body_->ball_centers();
  for (int kk = 0; kk < k; ++kk) {
    const double* c = centers + static_cast<size_t>(kk) * n;
    double d2 = 0.0;
    for (int j = 0; j < n; ++j) {
      double diff = x_[static_cast<size_t>(j) * stride + lane] - c[j];
      d2 += diff * diff;
    }
    ball_dist2_[static_cast<size_t>(kk) * stride + lane] = d2;
  }
  steps_since_refresh_[lane] = 0;
}

// Dense lockstep walk with a compile-time lane count. Same per-lane
// floating-point sequence as one scalar hit-and-run step (same operations,
// same order, same tolerances — the bit-identity contract the tests check
// against tests/scalar_sampler.h), but structured as K-wide panel
// operations: the lane loops have constant trip count K so they unroll
// completely, the per-row A·d and (x−c)·d dot products accumulate in K
// registers, and the post-draw move is fused with the containment guard
// into a single pass over the cached products. The step loop lives inside
// this function so panel pointers are hoisted once.
template <int K>
void BatchedHitAndRunSampler::WalkDense(int steps, util::Rng* const* rngs) {
  const int n = body_->dim();
  const int m = body_->num_halfspaces();
  const int k = body_->num_balls();
  const double* __restrict a = body_->halfspace_matrix();
  const double* __restrict b = body_->offsets();
  const double* __restrict centers = body_->ball_centers();
  const double* __restrict r2 = body_->ball_radius2();
  double* __restrict x = x_.data();
  double* __restrict d = d_.data();
  double* __restrict ax = ax_.data();
  double* __restrict ad = ad_.data();
  double* __restrict bq = ball_bq_.data();
  double* __restrict dist2 = ball_dist2_.data();
  const double kInf = std::numeric_limits<double>::infinity();
  double lo[K], hi[K], t[K];
  // 64-bit lane masks: a uint8_t mask mixes 1- and 8-byte elements in the
  // K-wide chord loops, which the vectorizer rejects without AVX-512BW;
  // word-sized masks keep every lane loop a uniform 8-byte-element block.
  uint64_t alive[K], bad[K];

  for (int step = 0; step < steps; ++step) {
    // Directions: per lane, the exact SampleUnitSphere sequence (n
    // Gaussians, norm accumulated in draw order, zero-norm redraw, scale by
    // 1/norm). The draws are inherently lane-serial (each lane's own
    // engine), but the normalization is not: the sqrt, reciprocal, and
    // scale run K lanes wide, instead of paying each lane the full
    // sqrt+divide latency chain back to back.
    double nrm[K];
    for (int l = 0; l < K; ++l) {
      nrm[l] = rngs[l]->GaussianFillSq(n, d + l, K);
    }
    for (int l = 0; l < K; ++l) nrm[l] = std::sqrt(nrm[l]);
    for (int l = 0; l < K; ++l) {
      // Cold path: an exactly-zero draw redraws this lane, as the scalar
      // do-while does (same per-engine draw order).
      while (nrm[l] == 0.0) {
        nrm[l] = std::sqrt(rngs[l]->GaussianFillSq(n, d + l, K));
      }
    }
    double inv[K];
    for (int l = 0; l < K; ++l) inv[l] = 1.0 / nrm[l];
    for (int j = 0; j < n; ++j) {
      double* __restrict dj = d + j * K;
      for (int l = 0; l < K; ++l) dj[l] *= inv[l];
    }
    for (int l = 0; l < K; ++l) {
      lo[l] = -kInf;
      hi[l] = kInf;
      alive[l] = 1;
    }

    // Halfspace panel: A·D fused with the chord interval, row by row. Each
    // lane's dot product accumulates in the scalar kernel's j order, in a
    // register, while the row entry a[i][j] is loaded once for all lanes.
    for (int i = 0; i < m; ++i) {
      const double* __restrict row = a + i * n;
      double acc[K];
      for (int l = 0; l < K; ++l) acc[l] = 0.0;
      for (int j = 0; j < n; ++j) {
        const double aij = row[j];
        const double* __restrict dj = d + j * K;
        for (int l = 0; l < K; ++l) acc[l] += aij * dj[l];
      }
      double* __restrict ad_row = ad + i * K;
      const double* __restrict ax_row = ax + i * K;
      const double bi = b[i];
      // Spill the accumulators before the chord update: the unrolled
      // accumulation promotes acc[] to SSA registers, which the loop
      // vectorizer cannot type — reloading from the panel row keeps the
      // chord loop one K-wide vector block.
      for (int l = 0; l < K; ++l) ad_row[l] = acc[l];
      for (int l = 0; l < K; ++l) {
        const double adv = ad_row[l];
        const bool grazing = std::fabs(adv) < 1e-14;
        // Guarded denominator keeps the lockstep divide well-defined on
        // grazing lanes; the quotient is only consumed when !grazing, where
        // it is exactly the scalar (b − ax)/ad.
        const double ti = (bi - ax_row[l]) / (grazing ? 1.0 : adv);
        hi[l] = (!grazing && adv > 0) ? std::min(hi[l], ti) : hi[l];
        lo[l] = (!grazing && adv < 0) ? std::max(lo[l], ti) : lo[l];
        alive[l] = (grazing && ax_row[l] > bi + 1e-9) ? uint64_t{0} : alive[l];
      }
    }

    // Ball panel: (x−c)·d per lane, then the quadratic chord cut against
    // the cached ||x−c||². A non-positive discriminant kills the lane for
    // this step, exactly like the scalar early return; the guarded sqrt
    // operand keeps dead-lane arithmetic defined.
    for (int kk = 0; kk < k; ++kk) {
      const double* __restrict c = centers + kk * n;
      double acc[K];
      for (int l = 0; l < K; ++l) acc[l] = 0.0;
      for (int j = 0; j < n; ++j) {
        const double cj = c[j];
        const double* __restrict xj = x + j * K;
        const double* __restrict dj = d + j * K;
        for (int l = 0; l < K; ++l) acc[l] += (xj[l] - cj) * dj[l];
      }
      double* __restrict bq_row = bq + kk * K;
      const double* __restrict d2_row = dist2 + kk * K;
      const double rr = r2[kk];
      for (int l = 0; l < K; ++l) bq_row[l] = acc[l];
      for (int l = 0; l < K; ++l) {
        const double bqv = bq_row[l];
        const double disc = bqv * bqv - (d2_row[l] - rr);
        alive[l] = (disc <= 0) ? uint64_t{0} : alive[l];
        const double sq = std::sqrt(disc > 0 ? disc : 0.0);
        lo[l] = std::max(lo[l], -bqv - sq);
        hi[l] = std::min(hi[l], -bqv + sq);
      }
    }

    // Chord validity, then one uniform draw per surviving lane. Dead lanes
    // draw nothing (their rng streams stay in lockstep with the scalar
    // sampler's early returns) and move by exactly t = 0.
    for (int l = 0; l < K; ++l) {
      if (!(lo[l] < hi[l]) || !std::isfinite(lo[l]) || !std::isfinite(hi[l])) {
        alive[l] = 0;
      }
      t[l] = alive[l] ? rngs[l]->Uniform(lo[l], hi[l]) : 0.0;
    }

    // Move panels fused with the containment guard: x += t·d, then the
    // O(m + k) incremental cache update computes each updated product and
    // compares it against its tolerance in the same pass (same values and
    // comparisons as the scalar guard — only the bad-flag aggregation order
    // differs, which no floating-point result depends on). A dead lane's
    // t = 0 makes every update an exact no-op.
    for (int j = 0; j < n; ++j) {
      double* __restrict xj = x + j * K;
      const double* __restrict dj = d + j * K;
      for (int l = 0; l < K; ++l) xj[l] += t[l] * dj[l];
    }
    for (int l = 0; l < K; ++l) bad[l] = 0;
    for (int i = 0; i < m; ++i) {
      double* __restrict ax_row = ax + i * K;
      const double* __restrict ad_row = ad + i * K;
      const double bi = b[i] + 1e-12;
      for (int l = 0; l < K; ++l) {
        const double v = ax_row[l] + t[l] * ad_row[l];
        ax_row[l] = v;
        bad[l] |= static_cast<uint64_t>(v > bi);
      }
    }
    // ||x + t·d − c||² = ||x − c||² + t·(2·(x−c)·d + t) for unit d.
    for (int kk = 0; kk < k; ++kk) {
      double* __restrict d2_row = dist2 + kk * K;
      const double* __restrict bq_row = bq + kk * K;
      const double rr = r2[kk] + 1e-12;
      for (int l = 0; l < K; ++l) {
        const double v = d2_row[l] + t[l] * (2.0 * bq_row[l] + t[l]);
        d2_row[l] = v;
        bad[l] |= static_cast<uint64_t>(v > rr);
      }
    }
    for (int l = 0; l < K; ++l) {
      if (!alive[l]) continue;  // the scalar path returns before its guard
      if (bad[l]) {
        // Rounding pushed the point marginally outside: pull back to the
        // chord midpoint, which is interior, and resync the lane exactly
        // (cold path, same as the scalar sampler).
        const double back = 0.5 * (lo[l] + hi[l]) - t[l];
        for (int j = 0; j < n; ++j) x[j * K + l] += back * d[j * K + l];
        RefreshLane(l);
        continue;
      }
      if (++steps_since_refresh_[l] >= kSamplerRefreshInterval) RefreshLane(l);
    }
  }
}

// One lockstep step over an arbitrary listed lane subset (the Karp–Luby
// loop's access pattern). Identical per-lane floating-point sequence to
// WalkDense — both are verbatim transcriptions of the scalar Step — with
// lanes addressed indirectly through lane_list.
void BatchedHitAndRunSampler::StepSubset(const int* lane_list, int count,
                                         util::Rng* const* rngs) {
  const int n = body_->dim();
  const int m = body_->num_halfspaces();
  const int k = body_->num_balls();
  const size_t stride = static_cast<size_t>(lanes_);
  const double* __restrict a = body_->halfspace_matrix();
  const double* __restrict b = body_->offsets();
  const double* __restrict centers = body_->ball_centers();
  const double* __restrict r2 = body_->ball_radius2();
  double* __restrict x = x_.data();
  double* __restrict d = d_.data();
  double* __restrict ax = ax_.data();
  double* __restrict ad = ad_.data();
  double* __restrict bq = ball_bq_.data();
  double* __restrict dist2 = ball_dist2_.data();
  double* __restrict lo = lo_.data();
  double* __restrict hi = hi_.data();
  double* __restrict t = t_.data();
  uint8_t* __restrict alive = alive_.data();
  const double kInf = std::numeric_limits<double>::infinity();

  // Directions: per lane, the exact SampleUnitSphere sequence (n Gaussians,
  // norm accumulated in index order, zero-norm redraw, scale by 1/norm),
  // each lane drawing from its own engine straight into its panel column.
  for (int idx = 0; idx < count; ++idx) {
    const int l = lane_list[idx];
    util::Rng& rng = *rngs[idx];
    double norm;
    do {
      rng.GaussianFill(n, d + l, lanes_);
      double s = 0.0;
      for (int j = 0; j < n; ++j) {
        const double v = d[static_cast<size_t>(j) * stride + l];
        s += v * v;
      }
      norm = std::sqrt(s);
    } while (norm == 0.0);
    const double inv = 1.0 / norm;
    for (int j = 0; j < n; ++j) d[static_cast<size_t>(j) * stride + l] *= inv;
    lo[l] = -kInf;
    hi[l] = kInf;
    alive[l] = 1;
  }

  // Halfspace rows: A·d fused with the chord interval, each listed lane
  // accumulating its dot product in the scalar kernel's j order.
  for (int i = 0; i < m; ++i) {
    const double* __restrict row = a + static_cast<size_t>(i) * n;
    double* __restrict ad_row = ad + static_cast<size_t>(i) * stride;
    for (int idx = 0; idx < count; ++idx) ad_row[lane_list[idx]] = 0.0;
    for (int j = 0; j < n; ++j) {
      const double aij = row[j];
      const double* __restrict dj = d + static_cast<size_t>(j) * stride;
      for (int idx = 0; idx < count; ++idx) {
        const int l = lane_list[idx];
        ad_row[l] += aij * dj[l];
      }
    }
    const double bi = b[i];
    const double* __restrict ax_row = ax + static_cast<size_t>(i) * stride;
    for (int idx = 0; idx < count; ++idx) {
      const int l = lane_list[idx];
      const double adv = ad_row[l];
      const bool grazing = std::fabs(adv) < 1e-14;
      // Guarded denominator keeps the lockstep divide well-defined on
      // grazing lanes; the quotient is only consumed when !grazing, where it
      // is exactly the scalar (b − ax)/ad.
      const double ti = (bi - ax_row[l]) / (grazing ? 1.0 : adv);
      if (!grazing && adv > 0) hi[l] = std::min(hi[l], ti);
      if (!grazing && adv < 0) lo[l] = std::max(lo[l], ti);
      if (grazing && ax_row[l] > bi + 1e-9) alive[l] = 0;  // outside; no chord
    }
  }

  // Balls: (x−c)·d per lane, then the quadratic chord cut against the
  // cached ||x−c||². A non-positive discriminant kills the lane for this
  // step (line misses or grazes the ball), exactly like the scalar early
  // return; the guarded sqrt operand keeps dead-lane arithmetic defined.
  for (int kk = 0; kk < k; ++kk) {
    const double* __restrict c = centers + static_cast<size_t>(kk) * n;
    double* __restrict bq_row = bq + static_cast<size_t>(kk) * stride;
    for (int idx = 0; idx < count; ++idx) bq_row[lane_list[idx]] = 0.0;
    for (int j = 0; j < n; ++j) {
      const double cj = c[j];
      const double* __restrict xj = x + static_cast<size_t>(j) * stride;
      const double* __restrict dj = d + static_cast<size_t>(j) * stride;
      for (int idx = 0; idx < count; ++idx) {
        const int l = lane_list[idx];
        bq_row[l] += (xj[l] - cj) * dj[l];
      }
    }
    const double rr = r2[kk];
    const double* __restrict d2_row = dist2 + static_cast<size_t>(kk) * stride;
    for (int idx = 0; idx < count; ++idx) {
      const int l = lane_list[idx];
      const double bqv = bq_row[l];
      const double disc = bqv * bqv - (d2_row[l] - rr);
      if (disc <= 0) alive[l] = 0;
      const double sq = std::sqrt(disc > 0 ? disc : 0.0);
      lo[l] = std::max(lo[l], -bqv - sq);
      hi[l] = std::min(hi[l], -bqv + sq);
    }
  }

  // Chord validity, then one uniform draw per surviving lane. Dead lanes
  // draw nothing (their rng streams stay in lockstep with the scalar
  // sampler's early returns) and move by exactly t = 0.
  for (int idx = 0; idx < count; ++idx) {
    const int l = lane_list[idx];
    if (!(lo[l] < hi[l]) || !std::isfinite(lo[l]) || !std::isfinite(hi[l])) {
      alive[l] = 0;
    }
    t[l] = alive[l] ? rngs[idx]->Uniform(lo[l], hi[l]) : 0.0;
  }

  // Move fused with the containment guard: x += t·d, then the O(m + k)
  // incremental cache update computes each updated product and compares it
  // against its tolerance in the same pass. A dead lane's t = 0 makes every
  // update an exact no-op, so its state stays value-identical to the scalar
  // sampler's untouched state.
  for (int j = 0; j < n; ++j) {
    double* __restrict xj = x + static_cast<size_t>(j) * stride;
    const double* __restrict dj = d + static_cast<size_t>(j) * stride;
    for (int idx = 0; idx < count; ++idx) {
      const int l = lane_list[idx];
      xj[l] += t[l] * dj[l];
    }
  }
  uint8_t* __restrict bad = bad_.data();
  for (int idx = 0; idx < count; ++idx) bad[lane_list[idx]] = 0;
  for (int i = 0; i < m; ++i) {
    double* __restrict ax_row = ax + static_cast<size_t>(i) * stride;
    const double* __restrict ad_row = ad + static_cast<size_t>(i) * stride;
    const double bi = b[i] + 1e-12;
    for (int idx = 0; idx < count; ++idx) {
      const int l = lane_list[idx];
      const double v = ax_row[l] + t[l] * ad_row[l];
      ax_row[l] = v;
      bad[l] |= static_cast<uint8_t>(v > bi);
    }
  }
  // ||x + t·d − c||² = ||x − c||² + t·(2·(x−c)·d + t) for unit d.
  for (int kk = 0; kk < k; ++kk) {
    double* __restrict d2_row = dist2 + static_cast<size_t>(kk) * stride;
    const double* __restrict bq_row = bq + static_cast<size_t>(kk) * stride;
    const double rr = r2[kk] + 1e-12;
    for (int idx = 0; idx < count; ++idx) {
      const int l = lane_list[idx];
      const double v = d2_row[l] + t[l] * (2.0 * bq_row[l] + t[l]);
      d2_row[l] = v;
      bad[l] |= static_cast<uint8_t>(v > rr);
    }
  }
  for (int idx = 0; idx < count; ++idx) {
    const int l = lane_list[idx];
    if (!alive[l]) continue;  // the scalar path returns before its guard
    if (bad[l]) {
      // Rounding pushed the point marginally outside: pull back to the
      // chord midpoint, which is interior, and resync the lane exactly
      // (cold path, same as the scalar sampler).
      const double back = 0.5 * (lo[l] + hi[l]) - t[l];
      for (int j = 0; j < n; ++j) {
        x[static_cast<size_t>(j) * stride + l] +=
            back * d[static_cast<size_t>(j) * stride + l];
      }
      RefreshLane(l);
      continue;
    }
    if (++steps_since_refresh_[l] >= kSamplerRefreshInterval) RefreshLane(l);
  }
}

void BatchedHitAndRunSampler::WalkLanes(int steps, const int* lane_list,
                                        int count, util::Rng* const* rngs) {
  if (count <= 0 || steps <= 0) return;
  bool dense = count == lanes_;
  for (int idx = 0; dense && idx < count; ++idx) dense = lane_list[idx] == idx;
  for (int idx = 0; idx < count; ++idx) {
    MUDB_DCHECK(lane_list[idx] >= 0 && lane_list[idx] < lanes_);
    MUDB_DCHECK(initialized_[lane_list[idx]]);
  }
  if (dense) {
    switch (lanes_) {
      case 1: WalkDense<1>(steps, rngs); return;
      case 2: WalkDense<2>(steps, rngs); return;
      case 4: WalkDense<4>(steps, rngs); return;
      case 8: WalkDense<8>(steps, rngs); return;
      case 16: WalkDense<16>(steps, rngs); return;
      default: break;  // uncommon lane count: generic path below
    }
  }
  for (int s = 0; s < steps; ++s) StepSubset(lane_list, count, rngs);
}

void BatchedHitAndRunSampler::WalkAll(int steps, util::Rng* rngs) {
  for (int l = 0; l < lanes_; ++l) rng_ptrs_[l] = &rngs[l];
  WalkLanes(steps, dense_lanes_.data(), lanes_, rng_ptrs_.data());
}

}  // namespace mudb::convex
