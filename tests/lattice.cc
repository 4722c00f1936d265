#include "tests/lattice.h"

#include <algorithm>
#include <cmath>

namespace mudb::measure {

namespace {

// Recursive enumeration of integer points with |z| <= radius.
void Enumerate(const constraints::RealFormula& formula, int radius, int dim,
               int index, double norm2_so_far, std::vector<double>* point,
               LatticeRatio* out) {
  if (index == dim) {
    ++out->total;
    if (formula.EvaluateAt(*point)) ++out->satisfying;
    return;
  }
  double budget = static_cast<double>(radius) * radius - norm2_so_far;
  int extent = static_cast<int>(std::floor(std::sqrt(std::max(0.0, budget))));
  for (int v = -extent; v <= extent; ++v) {
    (*point)[index] = v;
    Enumerate(formula, radius, dim, index + 1,
              norm2_so_far + static_cast<double>(v) * v, point, out);
  }
}

}  // namespace

util::StatusOr<LatticeRatio> NuLatticeRatio(
    const constraints::RealFormula& formula, int radius) {
  if (radius <= 0) {
    return util::Status::InvalidArgument("radius must be positive");
  }
  const constraints::RealFormula working = formula.Compacted();
  const int used = working.NumVariables();
  if (used > 3) {
    return util::Status::InvalidArgument(
        "lattice enumeration supports at most 3 variables, got " +
        std::to_string(used));
  }
  const int dim = std::max(used, 1);
  // Budget guard: (2r+1)^dim points.
  double points = std::pow(2.0 * radius + 1.0, dim);
  if (points > 5e8) {
    return util::Status::ResourceExhausted(
        "lattice enumeration too large; reduce the radius");
  }
  LatticeRatio out;
  out.radius = radius;
  std::vector<double> point(dim, 0.0);
  Enumerate(working, radius, dim, 0, 0.0, &point, &out);
  return out;
}

util::StatusOr<std::vector<LatticeRatio>> LatticeSweep(
    const constraints::RealFormula& formula, const std::vector<int>& radii) {
  std::vector<LatticeRatio> out;
  out.reserve(radii.size());
  for (int r : radii) {
    MUDB_ASSIGN_OR_RETURN(LatticeRatio ratio, NuLatticeRatio(formula, r));
    out.push_back(ratio);
  }
  return out;
}

}  // namespace mudb::measure
