// Seedable random number generation used by all randomized algorithms.
//
// A thin wrapper over an MT19937-64 engine so that every sampler in the
// library takes an explicit `Rng&`: benchmarks and tests are reproducible,
// and no component touches global random state. The engine produces the
// exact std::mt19937_64 output sequence (checked by util_test) but
// regenerates it block-wise — see BufferedMt19937_64 below.
//
// Parallel estimators never share one engine across workers. Instead they
// carve the workload into a task grid derived from the sample budget (never
// from the thread count) and give task i the substream Split(i). Because
// Split is a pure function of (construction seed, stream index), the set of
// substreams — and therefore every estimate reduced from them in fixed task
// order — is bit-identical for any thread count.

#ifndef MUDB_SRC_UTIL_RNG_H_
#define MUDB_SRC_UTIL_RNG_H_

#include <cstdint>
#include <cstring>
#include <random>

namespace mudb::util {

namespace internal {

/// Precomputed ziggurat layers for the standard normal: layer edges scaled
/// to 52-bit integers (ki), per-layer width factors (wi), and density values
/// (fi). Built on first use in rng.cc.
struct ZigguratTables {
  ZigguratTables();
  uint64_t ki[256];
  double wi[256];
  double fi[256];
};

/// Meyers singleton: safe for Gaussian draws during static initialization
/// of other translation units (a namespace-scope table object would be
/// silently all-zeros there).
const ZigguratTables& Ziggurat();

/// MT19937-64 with block-buffered generation, bit-identical in output to
/// std::mt19937_64 with the same seed (util_test locks the equivalence).
///
/// std::mt19937_64 pays the twist bookkeeping and the 4-step tempering on
/// every draw (~7 ns/draw here). Since the twist already regenerates all
/// 312 state words at once, this engine tempers the whole block into an
/// output buffer in the same pass — both loops are branchless and
/// auto-vectorize — so a draw on the hot path is a buffered load
/// (~2 ns/draw). Every estimator draws millions of deviates through this
/// engine, so the per-draw cost is a measurable slice of end-to-end
/// sampling throughput (bench_micro's BM_BatchedHitAndRun times it).
class BufferedMt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Standard MT19937-64 seeding (Knuth multiplicative expansion), the same
  /// state std::mt19937_64(seed) starts from.
  explicit BufferedMt19937_64(uint64_t seed) {
    state_[0] = seed;
    for (int i = 1; i < kN; ++i) {
      state_[i] = 6364136223846793005ull *
                      (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                  static_cast<uint64_t>(i);
    }
    next_ = kN;
  }

  result_type operator()() {
    if (next_ >= kN) Refill();
    return buffer_[next_++];
  }

 private:
  static constexpr int kN = 312;   // state words
  static constexpr int kM = 156;   // twist offset

  /// Twists the state and tempers all kN outputs into buffer_ (rng.cc).
  void Refill();

  uint64_t state_[kN];
  uint64_t buffer_[kN];
  int next_;
};

}  // namespace internal

/// Deterministic pseudo-random source. Not thread-safe; parallel code gives
/// each task its own engine via Split().
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull)
      : seed_(seed), engine_(seed) {}

  /// Uniform double in [0, 1). Hand-inlined std::generate_canonical<double,
  /// 53> over a full-range 64-bit engine, bit-identical to routing
  /// std::uniform_real_distribution<double>(0, 1) over std::mt19937_64
  /// (util_test locks the equivalence): one draw, scaled by the exact
  /// power of two 2⁻⁶⁴ (libstdc++ divides by 2⁶⁴ — the same operation),
  /// with the same clamp when the 53-bit rounding lands on 1.0.
  double Uniform01() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal deviate. 256-layer ziggurat (Marsaglia–Tsang over
  /// 52-bit mantissas): one engine draw and one table compare on the ~99%
  /// fast path — the direction-sampling workhorse of every estimator, so
  /// it must not cost a log/sqrt per deviate like the polar method does.
  double Gaussian() {
    const internal::ZigguratTables& zig = *zig_;
    for (;;) {
      uint64_t u = engine_();
      int idx = static_cast<int>(u & 0xff);
      uint64_t rabs = (u >> 12) & ((uint64_t{1} << 52) - 1);
      double x = static_cast<double>(rabs) * zig.wi[idx];
      if (rabs < zig.ki[idx]) {
        // Sign from bit 8, applied by flipping the sign bit directly: x is
        // nonnegative here, so the xor is exactly `neg ? -x : x` — but
        // branchless, where a 50/50 data branch would mispredict every
        // other deviate (measured ~2x on the whole fast path).
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        bits ^= (u & 0x100) << 55;
        std::memcpy(&x, &bits, sizeof(x));
        return x;
      }
      double out;
      // Tail or wedge: the slow path.
      if (GaussianSlow(idx, (u & 0x100) != 0, x, &out)) return out;
    }
  }

  /// Strided Gaussian fill: writes n deviates to out[0], out[stride], ...,
  /// out[(n-1)·stride], bit-identical to n successive Gaussian() calls, and
  /// returns their sum of squares accumulated in draw order — the norm
  /// accumulation every direction sampler needs, computed while each deviate
  /// is still in a register instead of reloading the output. The strided
  /// form writes one lane column of the batched sampler's lane-minor
  /// direction panel without a transpose pass.
  double GaussianFillSq(int n, double* out, int stride = 1) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) {
      const double v = Gaussian();
      out[static_cast<size_t>(i) * stride] = v;
      s += v * v;
    }
    return s;
  }

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform01() < p; }

  /// The seed this Rng was constructed with (the identity of its stream).
  uint64_t seed() const { return seed_; }

  /// Child engine for substream `stream`, seeded by the SplitMix64 finalizer
  /// over (seed, stream). A pure function of the construction seed — drawing
  /// from the parent does not perturb its substreams — so a fixed task grid
  /// receives the same substreams no matter how tasks are scheduled.
  /// Splitting composes: rng.Split(i).Split(j) is a grandchild stream, and
  /// distinct (seed, stream) pairs yield statistically independent engines.
  Rng Split(uint64_t stream) const {
    return Rng(SplitMix64(seed_ + 0x9E3779B97F4A7C15ull * (stream + 1)));
  }

  /// Draws one value from this engine and returns the child stream rooted at
  /// it. Estimators call Fork() once on entry (on the calling thread, before
  /// any parallelism): the draw advances the parent, so repeated calls with
  /// one Rng object see fresh substreams — the estimator consumes randomness
  /// like any other sampler — while a fresh same-seeded Rng reproduces the
  /// call exactly.
  Rng Fork() { return Split(engine_()); }

  /// The SplitMix64 finalizer (Steele–Lea–Flood): a bijective avalanche mix
  /// mapping structured inputs (seed + stream·golden) to well-spread seeds.
  static uint64_t SplitMix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Access to the underlying engine for std distributions (a drop-in
  /// uniform random bit generator emitting the std::mt19937_64 sequence).
  internal::BufferedMt19937_64& engine() { return engine_; }

 private:
  /// Ziggurat slow path (rng.cc): handles the tail layer and the wedge
  /// rejection test. Returns false when the candidate is rejected and the
  /// caller must redraw.
  bool GaussianSlow(int idx, bool neg, double x, double* out);

  uint64_t seed_;
  internal::BufferedMt19937_64 engine_;
  /// Resolved through the Meyers accessor at construction (even during
  /// static init of other TUs), then guard-free on every deviate.
  const internal::ZigguratTables* zig_ = &internal::Ziggurat();
};

}  // namespace mudb::util

#endif  // MUDB_SRC_UTIL_RNG_H_
