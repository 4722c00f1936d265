// Figure 1(b): "Never Knowingly Undersold" — time vs ε (see fig1_common.h).
// Reconstruction notes (division multiplied out, O linked to P, M.rrp for
// the garbled "M.id") are in bench/e2e/EXPERIMENTS.md.

#include "bench/fig1_common.h"

int main(int argc, char** argv) {
  return mudb::bench::RunFig1(
      "Never Knowingly Undersold",
      "SELECT P.id FROM Products P, Orders O, Market M "
      "WHERE P.seg = M.seg AND P.id = O.pr AND "
      "P.rrp * P.dis * O.q <= 0.5 * M.rrp * M.dis * O.dis LIMIT 25",
      argc, argv);
}
