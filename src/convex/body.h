// Convex bodies given by halfspaces and ball constraints, with the membership
// and chord oracles needed by hit-and-run sampling.
//
// The FPRAS of Thm. 7.1 works on bodies of the form
//     X = {z : C z <= 0} ∩ B(0, 1)
// (a homogeneous cone from one DNF disjunct of the linear constraint formula,
// intersected with the unit ball). The annealing volume estimator additionally
// intersects with shrinking balls around an inner point, so the body type
// supports any number of ball constraints.
//
// Storage is cache-contiguous for the sampling hot path: the halfspace
// normals live in one flat row-major m×n buffer (plus the offset vector b),
// and ball constraints are SoA (flat k×n centers, squared radii). These
// flat views are the only copy of the constraints, so there is no finalize
// step and copies stay cheap value semantics.

#ifndef MUDB_SRC_CONVEX_BODY_H_
#define MUDB_SRC_CONVEX_BODY_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/geom/geometry.h"
#include "src/lp/simplex.h"
#include "src/util/status.h"

namespace mudb::convex {

/// An intersection of halfspaces {x : a·x <= b} and balls. Dimension is fixed
/// at construction.
class ConvexBody {
 public:
  explicit ConvexBody(int dim) : dim_(dim) {}

  int dim() const { return dim_; }

  /// Adds {x : a·x <= b}; a must have size dim().
  void AddHalfspace(const geom::Vec& a, double b);
  /// Adds ||x - center|| <= radius.
  void AddBall(const geom::Vec& center, double radius);
  /// Replaces the radius of ball `index` in place. The annealing volume
  /// estimator reuses one phase body across its radius schedule instead of
  /// copying the whole constraint system per phase.
  void SetBallRadius(int index, double radius);

  /// Flat views for the sampling kernels. Row-major: halfspace i is
  /// halfspace_matrix()[i*dim() .. i*dim()+dim()), ball k's center is
  /// ball_centers()[k*dim() .. k*dim()+dim()). Pointers are invalidated by
  /// AddHalfspace/AddBall (but not by SetBallRadius).
  int num_halfspaces() const { return static_cast<int>(b_.size()); }
  int num_balls() const { return static_cast<int>(ball_radius2_.size()); }
  const double* halfspace_matrix() const { return a_flat_.data(); }
  const double* offsets() const { return b_.data(); }
  const double* ball_centers() const { return ball_centers_flat_.data(); }
  const double* ball_radius2() const { return ball_radius2_.data(); }

  bool Contains(const geom::Vec& x) const;

  /// The parameter interval [lo, hi] of {t : x + t·d ∈ body} for a point x
  /// inside the body and a unit direction d, or nullopt if the chord is
  /// empty/degenerate. (Hit-and-run requires x ∈ body.)
  std::optional<std::pair<double, double>> Chord(const geom::Vec& x,
                                                 const geom::Vec& d) const;

 private:
  int dim_;
  // Hot, flat storage (primary for the kernels).
  std::vector<double> a_flat_;             // m × dim, row-major
  std::vector<double> b_;                  // m
  std::vector<double> ball_centers_flat_;  // k × dim, row-major
  std::vector<double> ball_radius2_;       // k
};

/// An inscribed ball of a body, used to seed the annealing schedule.
struct InnerBall {
  geom::Vec center;
  double radius;
};

/// Finds inner balls of cones {z : C z <= 0} ∩ B(0, outer_radius) via LP
/// (maximize the margin against the normalized halfspaces over a centered
/// box). One finder instance amortizes the LP workspace — the tableau
/// buffers and the fixed box/margin constraint rows, which every cone
/// shares — across the per-cone solves of the FPRAS pipeline. The result
/// for a cone is a function of that cone alone (every solve rebuilds its
/// full tableau in the reused buffers), so reuse order cannot perturb it.
class InnerBallFinder {
 public:
  InnerBallFinder(int dim, double outer_radius);

  /// Returns nullopt when the cone has (numerically) empty interior, in
  /// which case its volume is 0.
  std::optional<InnerBall> Find(
      const std::vector<std::pair<geom::Vec, double>>& halfspaces);

 private:
  int dim_;
  double outer_radius_;
  lp::SimplexSolver solver_;
  std::vector<double> rows_;   // flat (n+1)-wide constraint rows
  std::vector<double> rhs_;
  std::vector<double> fixed_rows_;  // box + margin-cap rows, built once
  std::vector<double> fixed_rhs_;
  std::vector<double> objective_;
};

/// One-shot convenience over InnerBallFinder (cold callers, tests).
std::optional<InnerBall> FindInnerBall(
    const std::vector<std::pair<geom::Vec, double>>& halfspaces, int dim,
    double outer_radius);

}  // namespace mudb::convex

#endif  // MUDB_SRC_CONVEX_BODY_H_
