#include "src/service/request_key.h"

#include "src/util/fingerprint.h"

namespace mudb::service {

namespace {

constexpr uint64_t kRequestDomain = 0xB0D1'E5C0'FFEE'0003ull;

// Section markers: streams of different shapes must not collide by
// concatenation coincidences.
constexpr uint64_t kAtomMarker = 0x61;
constexpr uint64_t kNodeMarker = 0x62;
constexpr uint64_t kOptionsMarker = 0x63;

void AbsorbPolynomial(const poly::Polynomial& p,
                      util::FingerprintHasher* hasher) {
  // terms() is an ordered map, so iteration — and the stream — is canonical.
  hasher->Absorb(p.terms().size());
  for (const auto& [monomial, coeff] : p.terms()) {
    hasher->Absorb(monomial.size());
    for (uint32_t e : monomial) hasher->Absorb(e);
    hasher->AbsorbDouble(coeff);
  }
}

void AbsorbFormula(const constraints::RealFormula& f,
                   util::FingerprintHasher* hasher) {
  using Kind = constraints::RealFormula::Kind;
  hasher->Absorb(kNodeMarker);
  hasher->Absorb(static_cast<uint64_t>(f.kind()));
  switch (f.kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kAtom:
      hasher->Absorb(kAtomMarker);
      hasher->Absorb(static_cast<uint64_t>(f.atom().op));
      AbsorbPolynomial(f.atom().poly, hasher);
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      hasher->Absorb(f.children().size());
      for (const auto& child : f.children()) AbsorbFormula(child, hasher);
      return;
  }
}

}  // namespace

convex::CanonicalBodyKey RequestSignature(
    const constraints::RealFormula& formula,
    const measure::MeasureOptions& options) {
  util::FingerprintHasher hasher(kRequestDomain);
  // The engines measure the compacted formula (measure.h), so keying on it
  // makes an order-preserving renumbering of the nulls a memo hit.
  AbsorbFormula(formula.Compacted(), &hasher);
  hasher.Absorb(kOptionsMarker);
  hasher.Absorb(static_cast<uint64_t>(options.method));
  hasher.AbsorbDouble(options.epsilon);
  hasher.AbsorbDouble(options.delta);
  hasher.Absorb(options.seed);
  hasher.Absorb(static_cast<uint64_t>(options.use_z3_shortcuts));
  hasher.Absorb(static_cast<uint64_t>(
      static_cast<int64_t>(options.exact_order_max_vars)));
  // pool / body_cache are deliberately absent: the determinism contract
  // guarantees they cannot change a result.
  return convex::CanonicalBodyKey{hasher.Digest()};
}

}  // namespace mudb::service
