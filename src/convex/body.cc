#include "src/convex/body.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace mudb::convex {

void ConvexBody::AddHalfspace(const geom::Vec& a, double b) {
  MUDB_CHECK(static_cast<int>(a.size()) == dim_);
  a_flat_.insert(a_flat_.end(), a.begin(), a.end());
  b_.push_back(b);
}

void ConvexBody::AddBall(const geom::Vec& center, double radius) {
  MUDB_CHECK(static_cast<int>(center.size()) == dim_);
  MUDB_CHECK(radius > 0);
  ball_centers_flat_.insert(ball_centers_flat_.end(), center.begin(),
                            center.end());
  ball_radius2_.push_back(radius * radius);
}

void ConvexBody::SetBallRadius(int index, double radius) {
  MUDB_CHECK(index >= 0 && index < num_balls());
  MUDB_CHECK(radius > 0);
  ball_radius2_[index] = radius * radius;
}

bool ConvexBody::Contains(const geom::Vec& x) const {
  const int n = dim_;
  const int m = num_halfspaces();
  const double* a = a_flat_.data();
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) ax += row[j] * x[j];
    if (ax > b_[i] + 1e-12) return false;
  }
  const int k = num_balls();
  const double* centers = ball_centers_flat_.data();
  for (int kk = 0; kk < k; ++kk) {
    const double* c = centers + static_cast<size_t>(kk) * n;
    double d2 = 0.0;
    for (int j = 0; j < n; ++j) {
      double diff = x[j] - c[j];
      d2 += diff * diff;
    }
    if (d2 > ball_radius2_[kk] + 1e-12) return false;
  }
  return true;
}

std::optional<std::pair<double, double>> ConvexBody::Chord(
    const geom::Vec& x, const geom::Vec& d) const {
  const int n = dim_;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const int m = num_halfspaces();
  const double* a = a_flat_.data();
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    double ad = 0.0;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) {
      ad += row[j] * d[j];
      ax += row[j] * x[j];
    }
    if (std::fabs(ad) < 1e-14) {
      if (ax > b_[i] + 1e-9) return std::nullopt;  // x outside; no chord
      continue;
    }
    double t = (b_[i] - ax) / ad;
    if (ad > 0) {
      hi = std::min(hi, t);
    } else {
      lo = std::max(lo, t);
    }
  }
  const int k = num_balls();
  const double* centers = ball_centers_flat_.data();
  for (int kk = 0; kk < k; ++kk) {
    // ||x + t d - c||^2 <= r^2, with ||d|| = 1:
    // t^2 + 2 t (x-c)·d + ||x-c||^2 - r^2 <= 0.
    const double* c = centers + static_cast<size_t>(kk) * n;
    double bq = 0.0;
    double xc2 = 0.0;
    for (int j = 0; j < n; ++j) {
      double diff = x[j] - c[j];
      bq += diff * d[j];
      xc2 += diff * diff;
    }
    double cq = xc2 - ball_radius2_[kk];
    double disc = bq * bq - cq;
    if (disc <= 0) return std::nullopt;  // line misses or grazes the ball
    double sq = std::sqrt(disc);
    lo = std::max(lo, -bq - sq);
    hi = std::min(hi, -bq + sq);
  }
  if (!(lo < hi)) return std::nullopt;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return std::nullopt;
  return std::make_pair(lo, hi);
}

InnerBallFinder::InnerBallFinder(int dim, double outer_radius)
    : dim_(dim), outer_radius_(outer_radius) {
  MUDB_CHECK(dim >= 1);
  const int n = dim;
  // Variables: z_0..z_{n-1}, t. Maximize t subject to
  //   â_i · z + t <= b̂_i   (normalized cone halfspaces, per Find call)
  //   |z_j| <= outer_radius / (2 sqrt(n))   (keeps ||z|| <= outer_radius/2)
  //   t <= outer_radius.
  // The box and margin-cap rows are identical for every cone; build them
  // once here and splice them after the cone rows on each solve.
  double box = outer_radius / (2.0 * std::sqrt(static_cast<double>(n)));
  fixed_rows_.assign(static_cast<size_t>(2 * n + 1) * (n + 1), 0.0);
  fixed_rhs_.assign(2 * n + 1, box);
  for (int j = 0; j < n; ++j) {
    fixed_rows_[static_cast<size_t>(2 * j) * (n + 1) + j] = 1.0;
    fixed_rows_[static_cast<size_t>(2 * j + 1) * (n + 1) + j] = -1.0;
  }
  fixed_rows_[static_cast<size_t>(2 * n) * (n + 1) + n] = 1.0;
  fixed_rhs_[2 * n] = outer_radius;
  objective_.assign(n + 1, 0.0);
  objective_[n] = 1.0;
}

std::optional<InnerBall> InnerBallFinder::Find(
    const std::vector<std::pair<geom::Vec, double>>& halfspaces) {
  const int n = dim_;
  const int width = n + 1;
  rows_.clear();
  rhs_.clear();
  rows_.reserve((halfspaces.size() + fixed_rhs_.size()) * width);
  rhs_.reserve(halfspaces.size() + fixed_rhs_.size());
  for (const auto& [normal, offset] : halfspaces) {
    double norm = geom::Norm(normal);
    if (norm < 1e-14) {
      if (offset < 0) return std::nullopt;  // 0 <= b violated: empty body
      continue;                             // trivial constraint
    }
    size_t base = rows_.size();
    rows_.resize(base + width, 0.0);
    for (int j = 0; j < n; ++j) rows_[base + j] = normal[j] / norm;
    rows_[base + n] = 1.0;
    rhs_.push_back(offset / norm);
  }
  rows_.insert(rows_.end(), fixed_rows_.begin(), fixed_rows_.end());
  rhs_.insert(rhs_.end(), fixed_rhs_.begin(), fixed_rhs_.end());

  lp::LpResult res = solver_.SolveFlat(rows_.data(), rhs_.data(),
                                       static_cast<int>(rhs_.size()),
                                       objective_);
  if (res.status != lp::LpStatus::kOptimal) return std::nullopt;
  double t = res.x[n];
  if (t < 1e-9) return std::nullopt;  // empty interior (volume 0)
  geom::Vec center(res.x.begin(), res.x.begin() + n);
  double radius = std::min(t, outer_radius_ - geom::Norm(center));
  if (radius < 1e-9) return std::nullopt;
  return InnerBall{std::move(center), radius};
}

std::optional<InnerBall> FindInnerBall(
    const std::vector<std::pair<geom::Vec, double>>& halfspaces, int dim,
    double outer_radius) {
  InnerBallFinder finder(dim, outer_radius);
  return finder.Find(halfspaces);
}

}  // namespace mudb::convex
