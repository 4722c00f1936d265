#include "src/convex/canonical.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mudb::convex {

namespace {

// Domain tags keep the key families (bodies, raw forms, tiers) in disjoint
// codomains.
constexpr uint64_t kBodyDomain = 0xB0D1'E5C0'FFEE'0001ull;
constexpr uint64_t kTierDomain = 0xB0D1'E5C0'FFEE'0002ull;
constexpr uint64_t kRawDomain = 0xB0D1'E5C0'FFEE'0004ull;

// Sentinels absorbed between sections so (rows, balls) splits are unambiguous.
constexpr uint64_t kRowsMarker = 0x51;
constexpr uint64_t kBallsMarker = 0x52;
constexpr uint64_t kInfeasibleMarker = 0x53;

double DropNegZero(double v) { return v == 0.0 ? 0.0 : v; }

}  // namespace

CanonicalBodyKey CanonicalizeBody(const ConvexBody& body) {
  const int n = body.dim();
  const int m = body.num_halfspaces();
  const int k = body.num_balls();
  const double* a = body.halfspace_matrix();
  const double* b = body.offsets();

  // Canonical rows: (a, b) scaled by 1/|a_p| with p the first nonzero
  // column. Positive row rescalings cancel in the (correctly rounded)
  // division; all-zero rows carry no geometry (0 <= b) unless b < 0, which
  // makes the whole body empty.
  bool infeasible = false;
  std::vector<std::vector<double>> rows;
  rows.reserve(m);
  for (int i = 0; i < m; ++i) {
    const double* row = a + static_cast<size_t>(i) * n;
    int pivot = -1;
    for (int j = 0; j < n; ++j) {
      if (row[j] != 0.0) {
        pivot = j;
        break;
      }
    }
    if (pivot < 0) {
      if (b[i] < 0.0) infeasible = true;  // 0 <= b with b < 0: empty body
      continue;                           // trivial row: no geometry
    }
    double scale = std::fabs(row[pivot]);
    std::vector<double> canon(n + 1);
    for (int j = 0; j < n; ++j) canon[j] = DropNegZero(row[j] / scale);
    canon[n] = DropNegZero(b[i] / scale);
    rows.push_back(std::move(canon));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  // Canonical balls: (center, radius²) sorted; duplicates collapse. Balls
  // have no scale freedom, so the stored SoA values are already canonical up
  // to order and signed zeros.
  const double* centers = body.ball_centers();
  const double* radius2 = body.ball_radius2();
  std::vector<std::vector<double>> balls;
  balls.reserve(k);
  for (int i = 0; i < k; ++i) {
    std::vector<double> canon(n + 1);
    for (int j = 0; j < n; ++j) {
      canon[j] = DropNegZero(centers[static_cast<size_t>(i) * n + j]);
    }
    canon[n] = radius2[i];
    balls.push_back(std::move(canon));
  }
  std::sort(balls.begin(), balls.end());
  balls.erase(std::unique(balls.begin(), balls.end()), balls.end());

  util::FingerprintHasher hasher(kBodyDomain);
  hasher.Absorb(static_cast<uint64_t>(n));
  if (infeasible) hasher.Absorb(kInfeasibleMarker);
  hasher.Absorb(kRowsMarker);
  hasher.Absorb(rows.size());
  for (const auto& row : rows) {
    for (double v : row) hasher.AbsorbDouble(v);
  }
  hasher.Absorb(kBallsMarker);
  hasher.Absorb(balls.size());
  for (const auto& ball : balls) {
    for (double v : ball) hasher.AbsorbDouble(v);
  }
  return CanonicalBodyKey{hasher.Digest()};
}

util::Fingerprint128 RawBodyFingerprint(const ConvexBody& body,
                                        const geom::Vec& inner_center,
                                        double inner_radius,
                                        double outer_radius_bound) {
  const int n = body.dim();
  const int m = body.num_halfspaces();
  const int k = body.num_balls();
  util::FingerprintHasher hasher(kRawDomain);
  hasher.Absorb(static_cast<uint64_t>(n));
  hasher.Absorb(static_cast<uint64_t>(m));
  const double* a = body.halfspace_matrix();
  for (int i = 0; i < m * n; ++i) hasher.AbsorbDouble(a[i]);
  const double* b = body.offsets();
  for (int i = 0; i < m; ++i) hasher.AbsorbDouble(b[i]);
  hasher.Absorb(static_cast<uint64_t>(k));
  const double* centers = body.ball_centers();
  for (int i = 0; i < k * n; ++i) hasher.AbsorbDouble(centers[i]);
  const double* radius2 = body.ball_radius2();
  for (int i = 0; i < k; ++i) hasher.AbsorbDouble(radius2[i]);
  for (double c : inner_center) hasher.AbsorbDouble(c);
  hasher.AbsorbDouble(inner_radius);
  hasher.AbsorbDouble(outer_radius_bound);
  return hasher.Digest();
}

CanonicalBodyKey CombineKeyWithParams(const CanonicalBodyKey& key,
                                      const util::Fingerprint128& raw,
                                      double epsilon, uint64_t rng_salt) {
  util::FingerprintHasher hasher(kTierDomain);
  hasher.Absorb(key.fp.hi);
  hasher.Absorb(key.fp.lo);
  hasher.Absorb(raw.hi);
  hasher.Absorb(raw.lo);
  hasher.AbsorbDouble(epsilon);
  // Two zero words pin the key layout that every RngForKey stream, and so
  // every cached or recomputed estimate, is derived from.
  hasher.Absorb(uint64_t{0});
  hasher.Absorb(uint64_t{0});
  hasher.Absorb(rng_salt);
  return CanonicalBodyKey{hasher.Digest()};
}

util::Rng RngForKey(const CanonicalBodyKey& key) {
  // Split is a pure function of (seed, stream), so this is a pure function
  // of the key — the property the cross-request cache relies on.
  return util::Rng(key.fp.hi).Split(key.fp.lo);
}

}  // namespace mudb::convex
