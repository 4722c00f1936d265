#include "src/geom/geometry.h"

#include <cmath>

#include "src/util/status.h"

namespace mudb::geom {

double Norm(const Vec& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double Dot(const Vec& a, const Vec& b) {
  MUDB_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vec AddScaled(const Vec& a, double s, const Vec& b) {
  MUDB_DCHECK(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

void AddScaledInPlace(Vec& a, double s, const Vec& b) {
  MUDB_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

namespace {

// Thread-safe lgamma: glibc's lgamma() writes the process-global `signgam`,
// which races whenever two threads evaluate volumes at once — e.g. the
// callers of two MeasureService instances (geom_test's
// BallVolumeTest.ConcurrentCallsAgree checks this under TSan). The argument
// here is always > 0 (n/2 + 1), so the sign is statically +1 and the
// reentrant variant (or any signgam-free implementation) is exact.
double LGammaPositive(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double BallVolume(int n, double r) {
  MUDB_CHECK(n >= 0);
  // log V = (n/2)·log π − lgamma(n/2 + 1) + n·log r.
  double log_v = 0.5 * n * std::log(M_PI) - LGammaPositive(0.5 * n + 1.0) +
                 n * std::log(r);
  return std::exp(log_v);
}

Vec SampleUnitSphere(int n, util::Rng& rng) {
  Vec v;
  SampleUnitSphere(n, rng, v);
  return v;
}

void SampleUnitSphere(int n, util::Rng& rng, Vec& out) {
  MUDB_CHECK(n >= 1);
  out.resize(n);
  double norm = 0.0;
  // Regenerate in the (astronomically unlikely) case of a zero vector.
  do {
    for (int i = 0; i < n; ++i) out[i] = rng.Gaussian();
    norm = Norm(out);
  } while (norm == 0.0);
  double inv = 1.0 / norm;
  for (int i = 0; i < n; ++i) out[i] *= inv;
}

Vec SampleUnitBall(int n, util::Rng& rng) {
  Vec v = SampleUnitSphere(n, rng);
  double scale = std::pow(rng.Uniform01(), 1.0 / n);
  for (double& x : v) x *= scale;
  return v;
}

}  // namespace mudb::geom
