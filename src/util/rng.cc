#include "src/util/rng.h"

#include <cmath>

namespace mudb::util {

namespace internal {

namespace {

// Rightmost layer edge of the 256-layer standard-normal ziggurat and its
// reciprocal (Marsaglia–Tsang; the x_1 for which the 256-rectangle
// construction closes).
constexpr double kZigR = 3.6541528853610088;
constexpr double kZigInvR = 1.0 / kZigR;
constexpr double kM52 = 4503599627370496.0;  // 2^52

}  // namespace

ZigguratTables::ZigguratTables() {
  double dn = kZigR;
  double tn = kZigR;
  double f = std::exp(-0.5 * dn * dn);
  // Common layer area: rightmost rectangle plus the unnormalized Gaussian
  // tail mass beyond it.
  double v = dn * f + std::sqrt(M_PI / 2.0) * std::erfc(dn / std::sqrt(2.0));
  double q = v / f;
  ki[0] = static_cast<uint64_t>((dn / q) * kM52);
  ki[1] = 0;
  wi[0] = q / kM52;
  wi[255] = dn / kM52;
  fi[0] = 1.0;
  fi[255] = f;
  for (int i = 254; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(v / dn + std::exp(-0.5 * dn * dn)));
    ki[i + 1] = static_cast<uint64_t>((dn / tn) * kM52);
    tn = dn;
    fi[i] = std::exp(-0.5 * dn * dn);
    wi[i] = dn / kM52;
  }
}

const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

void BufferedMt19937_64::Refill() {
  // The MT19937-64 twist (Matsumoto–Nishimura constants, as in
  // std::mt19937_64), written as three wrap-free segments with the
  // conditional xor in branchless form so the loops auto-vectorize.
  constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ull;
  constexpr uint64_t kLowerMask = 0x000000007FFFFFFFull;
  uint64_t* __restrict s = state_;
  for (int i = 0; i < kN - kM; ++i) {
    const uint64_t y = (s[i] & kUpperMask) | (s[i + 1] & kLowerMask);
    s[i] = s[i + kM] ^ (y >> 1) ^ ((0ull - (y & 1ull)) & kMatrixA);
  }
  for (int i = kN - kM; i < kN - 1; ++i) {
    const uint64_t y = (s[i] & kUpperMask) | (s[i + 1] & kLowerMask);
    s[i] = s[i + kM - kN] ^ (y >> 1) ^ ((0ull - (y & 1ull)) & kMatrixA);
  }
  const uint64_t y = (s[kN - 1] & kUpperMask) | (s[0] & kLowerMask);
  s[kN - 1] = s[kM - 1] ^ (y >> 1) ^ ((0ull - (y & 1ull)) & kMatrixA);
  // Temper the whole block into the output buffer in one vectorizable pass
  // (std::mt19937_64 pays this per draw).
  uint64_t* __restrict b = buffer_;
  for (int i = 0; i < kN; ++i) {
    uint64_t z = s[i];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    b[i] = z;
  }
  next_ = 0;
}

}  // namespace internal

bool Rng::GaussianSlow(int idx, bool neg, double x, double* out) {
  const internal::ZigguratTables& zig = internal::Ziggurat();
  if (idx == 0) {
    // Tail layer: sample x > R from the Gaussian tail via the standard
    // double-exponential rejection (Marsaglia 1964).
    double xx;
    double yy;
    do {
      // log1p(-u) = log(1 - u) with 1 - u in (0, 1]: never -inf for
      // u ∈ [0, 1).
      xx = -internal::kZigInvR * std::log1p(-Uniform01());
      yy = -std::log1p(-Uniform01());
    } while (yy + yy < xx * xx);
    double r = internal::kZigR + xx;
    *out = neg ? -r : r;
    return true;
  }
  // Wedge between the layer rectangles: accept against the true density.
  double f_hi = zig.fi[idx - 1];
  double f_lo = zig.fi[idx];
  if (f_lo + Uniform01() * (f_hi - f_lo) < std::exp(-0.5 * x * x)) {
    *out = neg ? -x : x;
    return true;
  }
  return false;  // rejected: redraw a fresh layer
}

}  // namespace mudb::util
