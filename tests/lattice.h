// Integer lattice measure: the paper's third §10 extension.
//
// For integer-typed columns, §10 proposes replacing volumes by counts of
// integer lattice points: μ_Z(φ) = lim_r #{z ∈ Z^k : |z| ≤ r, φ(z)} /
// #{z ∈ Z^k : |z| ≤ r}. The n-dimensional Gauss circle problem says the
// number of lattice points in B_r^n approximates Vol(B_r^n) up to
// o(Vol(B_r^n)), so the integer and real measures agree in the limit. These
// helpers compute the finite-r ratios exactly (small dimensions), so
// lattice_test can check the convergence against ν.

#ifndef MUDB_TESTS_LATTICE_H_
#define MUDB_TESTS_LATTICE_H_

#include <cstdint>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/util/status.h"

namespace mudb::measure {

struct LatticeRatio {
  int radius = 0;
  int64_t satisfying = 0;
  int64_t total = 0;

  double ratio() const {
    return total == 0 ? 0.0
                      : static_cast<double>(satisfying) /
                            static_cast<double>(total);
  }
};

/// Exact count of lattice points of B_r^k satisfying φ (k = used variables
/// of φ after compaction; k <= 3 supported — the enumeration is (2r+1)^k).
/// InvalidArgument beyond 3 variables; ResourceExhausted for oversized
/// radius/dimension combinations.
util::StatusOr<LatticeRatio> NuLatticeRatio(
    const constraints::RealFormula& formula, int radius);

/// Ratios for a sweep of radii (the convergence series).
util::StatusOr<std::vector<LatticeRatio>> LatticeSweep(
    const constraints::RealFormula& formula, const std::vector<int>& radii);

}  // namespace mudb::measure

#endif  // MUDB_TESTS_LATTICE_H_
