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
  // Per-walker step scratch lives on the stack, sized kBatchMaxLanes.
  MUDB_CHECK(lanes_ >= 1 && lanes_ <= kBatchMaxLanes);
  const size_t k_lanes = static_cast<size_t>(lanes_);
  x_.assign(k_lanes * body_->dim(), 0.0);
  d_.assign(k_lanes * body_->dim(), 0.0);
  ax_.assign(k_lanes * body_->num_halfspaces(), 0.0);
  ad_.assign(k_lanes * body_->num_halfspaces(), 0.0);
  ball_bq_.assign(k_lanes * body_->num_balls(), 0.0);
  ball_dist2_.assign(k_lanes * body_->num_balls(), 0.0);
  initialized_.assign(k_lanes, 0);
  steps_since_refresh_.assign(k_lanes, 0);
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

// The one lockstep step body. Per lane it performs exactly the
// floating-point sequence of one scalar hit-and-run step (same operations,
// same order, same tolerances — the bit-identity contract the tests check
// against tests/scalar_sampler.h), structured as panel operations over the
// walking lanes. K > 0 is the dense panel: lanes 0..K-1 of a K-lane
// sampler, so every lane loop has constant trip count K and unrolls
// completely, and the per-row A·d and (x−c)·d dot products accumulate in K
// registers. K = 0 runs the same statements over `count` listed lanes of a
// lanes_-wide panel (the Karp–Luby loop's pattern, and every lane count
// without a dense specialization). Per-walker scratch is indexed by list
// position and lives on the stack; the post-draw move is fused with the
// containment guard into a single pass over the cached products. The step
// loop lives inside this function so panel pointers are hoisted once.
template <int K>
void BatchedHitAndRunSampler::Walk(int steps, const int* lane_list, int count,
                                   util::Rng* const* rngs) {
  constexpr int kScratch = K > 0 ? K : kBatchMaxLanes;
  const int width = K > 0 ? K : count;
  const int stride = K > 0 ? K : lanes_;
  // Panel column of the i-th walking lane.
  auto lane = [&](int i) {
    if constexpr (K > 0) {
      return i;
    } else {
      return lane_list[i];
    }
  };
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
  double lo[kScratch] = {}, hi[kScratch] = {}, t[kScratch] = {};
  // 64-bit lane masks: a uint8_t mask mixes 1- and 8-byte elements in the
  // K-wide chord loops, which the vectorizer rejects without AVX-512BW;
  // word-sized masks keep every lane loop a uniform 8-byte-element block.
  uint64_t alive[kScratch] = {}, bad[kScratch] = {};

  for (int step = 0; step < steps; ++step) {
    // Directions: per lane, the exact SampleUnitSphere sequence (n
    // Gaussians, norm accumulated in draw order, zero-norm redraw, scale by
    // 1/norm). The draws are inherently lane-serial (each lane's own
    // engine), but the normalization is not: the sqrt, reciprocal, and
    // scale run across the lanes, instead of paying each lane the full
    // sqrt+divide latency chain back to back.
    double nrm[kScratch] = {};
    for (int i = 0; i < width; ++i) {
      nrm[i] = rngs[i]->GaussianFillSq(n, d + lane(i), stride);
    }
    for (int i = 0; i < width; ++i) nrm[i] = std::sqrt(nrm[i]);
    for (int i = 0; i < width; ++i) {
      // Cold path: an exactly-zero draw redraws this lane, as the scalar
      // do-while does (same per-engine draw order).
      while (nrm[i] == 0.0) {
        nrm[i] = std::sqrt(rngs[i]->GaussianFillSq(n, d + lane(i), stride));
      }
    }
    double inv[kScratch] = {};
    for (int i = 0; i < width; ++i) inv[i] = 1.0 / nrm[i];
    for (int j = 0; j < n; ++j) {
      double* __restrict dj = d + j * stride;
      for (int i = 0; i < width; ++i) dj[lane(i)] *= inv[i];
    }
    for (int i = 0; i < width; ++i) {
      lo[i] = -kInf;
      hi[i] = kInf;
      alive[i] = 1;
    }

    // Halfspace panel: A·D fused with the chord interval, row by row. Each
    // lane's dot product accumulates in the scalar kernel's j order, in a
    // register, while the row entry a[i][j] is loaded once for all lanes.
    for (int row_i = 0; row_i < m; ++row_i) {
      const double* __restrict row = a + row_i * n;
      double acc[kScratch] = {};
      for (int j = 0; j < n; ++j) {
        const double aij = row[j];
        const double* __restrict dj = d + j * stride;
        for (int i = 0; i < width; ++i) acc[i] += aij * dj[lane(i)];
      }
      double* __restrict ad_row = ad + row_i * stride;
      const double* __restrict ax_row = ax + row_i * stride;
      const double bi = b[row_i];
      // Spill the accumulators before the chord update: the unrolled
      // accumulation promotes acc[] to SSA registers, which the loop
      // vectorizer cannot type — reloading from the panel row keeps the
      // chord loop one K-wide vector block.
      for (int i = 0; i < width; ++i) ad_row[lane(i)] = acc[i];
      for (int i = 0; i < width; ++i) {
        const double adv = ad_row[lane(i)];
        const double axv = ax_row[lane(i)];
        const bool grazing = std::fabs(adv) < 1e-14;
        // Guarded denominator keeps the lockstep divide well-defined on
        // grazing lanes; the quotient is only consumed when !grazing, where
        // it is exactly the scalar (b − ax)/ad.
        const double ti = (bi - axv) / (grazing ? 1.0 : adv);
        hi[i] = (!grazing && adv > 0) ? std::min(hi[i], ti) : hi[i];
        lo[i] = (!grazing && adv < 0) ? std::max(lo[i], ti) : lo[i];
        alive[i] = (grazing && axv > bi + 1e-9) ? uint64_t{0} : alive[i];
      }
    }

    // Ball panel: (x−c)·d per lane, then the quadratic chord cut against
    // the cached ||x−c||². A non-positive discriminant kills the lane for
    // this step, exactly like the scalar early return; the guarded sqrt
    // operand keeps dead-lane arithmetic defined.
    for (int kk = 0; kk < k; ++kk) {
      const double* __restrict c = centers + kk * n;
      double acc[kScratch] = {};
      for (int j = 0; j < n; ++j) {
        const double cj = c[j];
        const double* __restrict xj = x + j * stride;
        const double* __restrict dj = d + j * stride;
        for (int i = 0; i < width; ++i) {
          acc[i] += (xj[lane(i)] - cj) * dj[lane(i)];
        }
      }
      double* __restrict bq_row = bq + kk * stride;
      const double* __restrict d2_row = dist2 + kk * stride;
      const double rr = r2[kk];
      for (int i = 0; i < width; ++i) bq_row[lane(i)] = acc[i];
      for (int i = 0; i < width; ++i) {
        const double bqv = bq_row[lane(i)];
        const double disc = bqv * bqv - (d2_row[lane(i)] - rr);
        alive[i] = (disc <= 0) ? uint64_t{0} : alive[i];
        const double sq = std::sqrt(disc > 0 ? disc : 0.0);
        lo[i] = std::max(lo[i], -bqv - sq);
        hi[i] = std::min(hi[i], -bqv + sq);
      }
    }

    // Chord validity, then one uniform draw per surviving lane. Dead lanes
    // draw nothing (their rng streams stay in lockstep with the scalar
    // sampler's early returns) and move by exactly t = 0.
    for (int i = 0; i < width; ++i) {
      if (!(lo[i] < hi[i]) || !std::isfinite(lo[i]) || !std::isfinite(hi[i])) {
        alive[i] = 0;
      }
      t[i] = alive[i] ? rngs[i]->Uniform(lo[i], hi[i]) : 0.0;
    }

    // Move panels fused with the containment guard: x += t·d, then the
    // O(m + k) incremental cache update computes each updated product and
    // compares it against its tolerance in the same pass (same values and
    // comparisons as the scalar guard — only the bad-flag aggregation order
    // differs, which no floating-point result depends on). A dead lane's
    // t = 0 makes every update an exact no-op.
    for (int j = 0; j < n; ++j) {
      double* __restrict xj = x + j * stride;
      const double* __restrict dj = d + j * stride;
      for (int i = 0; i < width; ++i) xj[lane(i)] += t[i] * dj[lane(i)];
    }
    for (int i = 0; i < width; ++i) bad[i] = 0;
    for (int row_i = 0; row_i < m; ++row_i) {
      double* __restrict ax_row = ax + row_i * stride;
      const double* __restrict ad_row = ad + row_i * stride;
      const double bi = b[row_i] + 1e-12;
      for (int i = 0; i < width; ++i) {
        const double v = ax_row[lane(i)] + t[i] * ad_row[lane(i)];
        ax_row[lane(i)] = v;
        bad[i] |= static_cast<uint64_t>(v > bi);
      }
    }
    // ||x + t·d − c||² = ||x − c||² + t·(2·(x−c)·d + t) for unit d.
    for (int kk = 0; kk < k; ++kk) {
      double* __restrict d2_row = dist2 + kk * stride;
      const double* __restrict bq_row = bq + kk * stride;
      const double rr = r2[kk] + 1e-12;
      for (int i = 0; i < width; ++i) {
        const double v =
            d2_row[lane(i)] + t[i] * (2.0 * bq_row[lane(i)] + t[i]);
        d2_row[lane(i)] = v;
        bad[i] |= static_cast<uint64_t>(v > rr);
      }
    }
    for (int i = 0; i < width; ++i) {
      if (!alive[i]) continue;  // the scalar path returns before its guard
      const int l = lane(i);
      if (bad[i]) {
        // Rounding pushed the point marginally outside: pull back to the
        // chord midpoint, which is interior, and resync the lane exactly
        // (cold path, same as the scalar sampler).
        const double back = 0.5 * (lo[i] + hi[i]) - t[i];
        for (int j = 0; j < n; ++j) {
          x[j * stride + l] += back * d[j * stride + l];
        }
        RefreshLane(l);
        continue;
      }
      if (++steps_since_refresh_[l] >= kSamplerRefreshInterval) RefreshLane(l);
    }
  }
}

void BatchedHitAndRunSampler::WalkLanes(int steps, const int* lane_list,
                                        int count, util::Rng* const* rngs) {
  if (count <= 0 || steps <= 0) return;
  MUDB_DCHECK(count <= lanes_);
  bool dense = count == lanes_;
  for (int idx = 0; dense && idx < count; ++idx) dense = lane_list[idx] == idx;
  for (int idx = 0; idx < count; ++idx) {
    MUDB_DCHECK(lane_list[idx] >= 0 && lane_list[idx] < lanes_);
    MUDB_DCHECK(initialized_[lane_list[idx]]);
  }
  if (dense) {
    switch (lanes_) {
      case 1: Walk<1>(steps, lane_list, count, rngs); return;
      case 2: Walk<2>(steps, lane_list, count, rngs); return;
      case 4: Walk<4>(steps, lane_list, count, rngs); return;
      case 8: Walk<8>(steps, lane_list, count, rngs); return;
      case 16: Walk<16>(steps, lane_list, count, rngs); return;
      default: break;  // no dense specialization: walk the list
    }
  }
  Walk<0>(steps, lane_list, count, rngs);
}

void BatchedHitAndRunSampler::WalkAll(int steps, util::Rng* rngs) {
  int lane_list[kBatchMaxLanes] = {};
  util::Rng* rng_ptrs[kBatchMaxLanes] = {};
  for (int l = 0; l < lanes_; ++l) {
    lane_list[l] = l;
    rng_ptrs[l] = &rngs[l];
  }
  WalkLanes(steps, lane_list, lanes_, rng_ptrs);
}

}  // namespace mudb::convex
