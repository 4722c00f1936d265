// Content-addressed identity for convex bodies: the dedup key of the
// measurement serving layer.
//
// Real workloads evaluate μ(q, D, (a,s)) for many candidate tuples over one
// database, and the grounded constraint systems share almost all of their
// geometry. CanonicalizeBody maps a ConvexBody to a key that is invariant
// under the representation noise such sharing produces:
//
//   * halfspace row order (rows are sorted canonically),
//   * positive rescaling of a row (a, b) → (c·a, c·b): every row is divided
//     by the magnitude of its first nonzero coefficient — one correctly
//     rounded IEEE division per entry, so the key is bit-stable whenever the
//     rescaled inputs are themselves exact (integer and dyadic-rational
//     coefficient systems, the grounding's common case) and within 1 ulp of
//     stable otherwise,
//   * duplicated constraints (equal canonical rows collapse),
//   * ball constraint order (balls are sorted canonically).
//
// Equal keys are treated as equal bodies by every layer built on top (the
// in-call dedup of volume/union_volume.cc and the cross-request
// service/estimate_cache.h): a 128-bit fingerprint collision is a ~2^-64
// birthday event, far below the estimators' failure probability δ.
//
// Canonical keys define the dedup equality class; bitwise caching needs
// more. A volume estimate is a pure function of the *raw* representation
// the sampling kernels walk (row order perturbs LP pivoting, non-dyadic
// rescalings perturb chord arithmetic), so cross-call cache keys combine
// the canonical key with RawBodyFingerprint and the estimation tier
// (CombineKeyWithParams), and RngForKey derives the estimate's RNG stream
// from that combined key. A cached estimate can then be reused across
// requests while staying bit-identical to what recomputation would produce
// — the serving layer's determinism contract rests on it.

#ifndef MUDB_SRC_CONVEX_CANONICAL_H_
#define MUDB_SRC_CONVEX_CANONICAL_H_

#include <cstdint>

#include "src/convex/body.h"
#include "src/util/fingerprint.h"
#include "src/util/rng.h"

namespace mudb::convex {

/// The canonical content key of a convex body (see file comment for the
/// invariances). A value type: compare, order, and hash freely.
struct CanonicalBodyKey {
  util::Fingerprint128 fp;

  friend bool operator==(const CanonicalBodyKey& a, const CanonicalBodyKey& b) {
    return a.fp == b.fp;
  }
  friend bool operator!=(const CanonicalBodyKey& a, const CanonicalBodyKey& b) {
    return !(a == b);
  }
  friend bool operator<(const CanonicalBodyKey& a, const CanonicalBodyKey& b) {
    return a.fp < b.fp;
  }

  struct Hash {
    size_t operator()(const CanonicalBodyKey& k) const {
      return util::Fingerprint128::Hash{}(k.fp);
    }
  };
};

/// Computes the canonical key of `body`. Deterministic and allocation-light:
/// O(m log m) in the constraint count, no sampling, no LP.
CanonicalBodyKey CanonicalizeBody(const ConvexBody& body);

/// Fingerprint of a body's *raw* representation as the sampling kernels
/// consume it — the flat constraint arrays in insertion order, plus the
/// seeding geometry (inner ball, outer radius bound). Canonically equal
/// bodies can still differ here (row order perturbs LP pivoting; non-dyadic
/// rescalings perturb the chord arithmetic), and a volume estimate is a
/// bitwise-pure function of the raw form, not the canonical one — so
/// cross-call caches must key on this in addition to the canonical key.
util::Fingerprint128 RawBodyFingerprint(const ConvexBody& body,
                                        const geom::Vec& inner_center,
                                        double inner_radius,
                                        double outer_radius_bound);

/// Builds the cross-call cache key of a volume estimate: the canonical body
/// key, the raw-representation fingerprint (what the estimate is bitwise a
/// function of), the estimation ε (the "ε tier"), and the caller's RNG
/// lineage (`rng_salt`, e.g. the forked call rng's seed). Keeping the salt
/// in the key preserves the API's seed sensitivity — distinct seeds give
/// distinct estimates — while requests that share a seed (the serving
/// layer's common case) share estimates. Streams absorbed here are
/// domain-separated from body keys.
CanonicalBodyKey CombineKeyWithParams(const CanonicalBodyKey& key,
                                      const util::Fingerprint128& raw,
                                      double epsilon, uint64_t rng_salt);

/// The RNG stream owned by a (body × tier) key: a pure function of the key,
/// so an estimate computed from it can be cached and replayed bit-exactly by
/// any request that produces the same key.
util::Rng RngForKey(const CanonicalBodyKey& key);

}  // namespace mudb::convex

#endif  // MUDB_SRC_CONVEX_CANONICAL_H_
