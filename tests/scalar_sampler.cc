#include "tests/scalar_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mudb::convex {

HitAndRunSampler::HitAndRunSampler(const ConvexBody* body, geom::Vec start)
    : body_(body), x_(std::move(start)) {
  MUDB_CHECK(body_ != nullptr);
  MUDB_CHECK(static_cast<int>(x_.size()) == body_->dim());
  MUDB_CHECK(body_->Contains(x_));
  d_.resize(body_->dim());
  RefreshProducts();
}

void HitAndRunSampler::set_current(geom::Vec x) {
  MUDB_CHECK(static_cast<int>(x.size()) == body_->dim());
  x_ = std::move(x);
  // Same contract as the constructor: an exterior point would silently
  // freeze the chain (every chord degenerate), so fail fast here instead.
  MUDB_CHECK(body_->Contains(x_));
  RefreshProducts();
}

void HitAndRunSampler::RefreshProducts() {
  const int n = body_->dim();
  const int m = body_->num_halfspaces();
  const int k = body_->num_balls();
  ax_.resize(m);
  ad_.resize(m);
  ball_dist2_.resize(k);
  ball_bq_.resize(k);
  const double* a = body_->halfspace_matrix();
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) ax += row[j] * x_[j];
    ax_[i] = ax;
  }
  const double* centers = body_->ball_centers();
  for (int kk = 0; kk < k; ++kk) {
    const double* c = centers + static_cast<size_t>(kk) * n;
    double d2 = 0.0;
    for (int j = 0; j < n; ++j) {
      double diff = x_[j] - c[j];
      d2 += diff * diff;
    }
    ball_dist2_[kk] = d2;
  }
  steps_since_refresh_ = 0;
}

void HitAndRunSampler::ApplyMove(double t) {
  const int n = body_->dim();
  for (int j = 0; j < n; ++j) x_[j] += t * d_[j];
  const int m = body_->num_halfspaces();
  for (int i = 0; i < m; ++i) ax_[i] += t * ad_[i];
  const int k = body_->num_balls();
  // ||x + t·d − c||² = ||x − c||² + 2t·(x−c)·d + t² for unit d.
  for (int kk = 0; kk < k; ++kk) {
    ball_dist2_[kk] += t * (2.0 * ball_bq_[kk] + t);
  }
}

void HitAndRunSampler::Step(util::Rng& rng) {
  const int n = body_->dim();
  geom::SampleUnitSphere(n, rng, d_);

  // Fused pass: A·d and the chord interval together, against the cached A·x.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const int m = body_->num_halfspaces();
  const double* a = body_->halfspace_matrix();
  const double* b = body_->offsets();
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    double ad = 0.0;
    for (int j = 0; j < n; ++j) ad += row[j] * d_[j];
    ad_[i] = ad;
    if (std::fabs(ad) < 1e-14) {
      if (ax_[i] > b[i] + 1e-9) return;  // x outside; no chord
      continue;
    }
    double t = (b[i] - ax_[i]) / ad;
    if (ad > 0) {
      hi = std::min(hi, t);
    } else {
      lo = std::max(lo, t);
    }
  }
  const int k = body_->num_balls();
  const double* centers = body_->ball_centers();
  const double* r2 = body_->ball_radius2();
  for (int kk = 0; kk < k; ++kk) {
    // t² + 2t·(x−c)·d + ||x−c||² − r² <= 0, with ||x−c||² cached.
    const double* c = centers + static_cast<size_t>(kk) * n;
    double bq = 0.0;
    for (int j = 0; j < n; ++j) bq += (x_[j] - c[j]) * d_[j];
    ball_bq_[kk] = bq;
    double disc = bq * bq - (ball_dist2_[kk] - r2[kk]);
    if (disc <= 0) return;  // line misses or grazes the ball; stay in place
    double sq = std::sqrt(disc);
    lo = std::max(lo, -bq - sq);
    hi = std::min(hi, -bq + sq);
  }
  if (!(lo < hi)) return;  // degenerate chord; stay in place
  if (!std::isfinite(lo) || !std::isfinite(hi)) return;

  double t = rng.Uniform(lo, hi);
  ApplyMove(t);
  // Guard against rounding pushing the point marginally outside, comparing
  // the cached products against the offsets — no second constraint scan. If
  // outside, pull back to the chord midpoint, which is interior, and resync
  // the caches exactly (cold path).
  bool inside = true;
  for (int i = 0; i < m; ++i) {
    if (ax_[i] > b[i] + 1e-12) {
      inside = false;
      break;
    }
  }
  if (inside) {
    for (int kk = 0; kk < k; ++kk) {
      if (ball_dist2_[kk] > r2[kk] + 1e-12) {
        inside = false;
        break;
      }
    }
  }
  if (!inside) {
    // Only the position needs the incremental update here: the caches are
    // about to be recomputed exactly from the pulled-back point.
    double back = 0.5 * (lo + hi) - t;
    for (int j = 0; j < n; ++j) x_[j] += back * d_[j];
    RefreshProducts();
    return;
  }
  if (++steps_since_refresh_ >= kSamplerRefreshInterval) RefreshProducts();
}

void HitAndRunSampler::Walk(int n, util::Rng& rng) {
  for (int i = 0; i < n; ++i) Step(rng);
}

}  // namespace mudb::convex
