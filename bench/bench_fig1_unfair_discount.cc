// Figure 1(c): "Unfair Discount" — time vs ε (see fig1_common.h).
// Reconstruction notes are in bench/e2e/EXPERIMENTS.md.

#include "bench/fig1_common.h"

int main(int argc, char** argv) {
  return mudb::bench::RunFig1(
      "Unfair Discount",
      "SELECT O.id FROM Products P, Orders O "
      "WHERE P.id = O.pr AND O.dis >= 1.6 * P.dis * O.q LIMIT 25",
      argc, argv);
}
