// Tests for convex/canonical.h: the content-addressed body keys the dedup
// and caching layers are built on. Invariance uses exactly representable
// inputs (integer coefficients, integer / power-of-two scales), where the
// canonical division is bit-exact; collision freedom sweeps 10k random
// systems.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/convex/canonical.h"

namespace mudb::convex {
namespace {

struct Row {
  geom::Vec a;
  double b;
};

struct Ball {
  geom::Vec center;
  double radius;
};

ConvexBody BodyFromRows(int dim, const std::vector<Row>& rows,
                        const std::vector<Ball>& balls) {
  ConvexBody body(dim);
  for (const Row& row : rows) body.AddHalfspace(row.a, row.b);
  for (const Ball& ball : balls) body.AddBall(ball.center, ball.radius);
  return body;
}

TEST(CanonicalTest, RowPermutationInvariance) {
  std::mt19937_64 gen(1);
  std::uniform_int_distribution<int> coeff(-5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    int dim = 2 + trial % 4;
    std::vector<Row> rows;
    for (int i = 0; i < 6; ++i) {
      geom::Vec a(dim);
      for (int j = 0; j < dim; ++j) a[j] = coeff(gen);
      if (std::all_of(a.begin(), a.end(), [](double v) { return v == 0; })) {
        a[0] = 1;
      }
      rows.push_back({a, static_cast<double>(coeff(gen))});
    }
    std::vector<Ball> balls{{geom::Vec(dim, 0.0), 1.0},
                            {geom::Vec(dim, 0.5), 2.0}};
    CanonicalBodyKey base = CanonicalizeBody(BodyFromRows(dim, rows, balls));
    std::shuffle(rows.begin(), rows.end(), gen);
    std::shuffle(balls.begin(), balls.end(), gen);
    CanonicalBodyKey shuffled =
        CanonicalizeBody(BodyFromRows(dim, rows, balls));
    EXPECT_EQ(base, shuffled) << "trial " << trial;
  }
}

TEST(CanonicalTest, RowScalingInvariance) {
  // Positive rescaling of (a, b) is representation noise. With integer
  // coefficients and integer or power-of-two scales, the products are exact
  // and the canonical division cancels them bit-for-bit.
  std::mt19937_64 gen(2);
  std::uniform_int_distribution<int> coeff(-7, 7);
  const double scales[] = {2.0, 0.5, 4.0, 3.0, 7.0, 0.25, 5.0};
  for (int trial = 0; trial < 50; ++trial) {
    int dim = 1 + trial % 5;
    std::vector<Row> rows;
    for (int i = 0; i < 5; ++i) {
      geom::Vec a(dim);
      for (int j = 0; j < dim; ++j) a[j] = coeff(gen);
      if (std::all_of(a.begin(), a.end(), [](double v) { return v == 0; })) {
        a[trial % dim] = -3;
      }
      rows.push_back({a, static_cast<double>(coeff(gen))});
    }
    CanonicalBodyKey base = CanonicalizeBody(BodyFromRows(dim, rows, {}));
    std::vector<Row> scaled = rows;
    for (size_t i = 0; i < scaled.size(); ++i) {
      double c = scales[(trial + i) % (sizeof(scales) / sizeof(scales[0]))];
      for (double& v : scaled[i].a) v *= c;
      scaled[i].b *= c;
    }
    CanonicalBodyKey rescaled = CanonicalizeBody(BodyFromRows(dim, scaled, {}));
    EXPECT_EQ(base, rescaled) << "trial " << trial;
  }
}

TEST(CanonicalTest, DuplicatedConstraintsCollapse) {
  geom::Vec a{1.0, -2.0};
  std::vector<Row> once{{a, 3.0}};
  std::vector<Row> thrice{{a, 3.0}, {a, 3.0}, {a, 3.0}};
  // A scaled duplicate is still the same constraint.
  std::vector<Row> scaled_dup{{a, 3.0}, {geom::Vec{2.0, -4.0}, 6.0}};
  CanonicalBodyKey k1 = CanonicalizeBody(BodyFromRows(2, once, {}));
  EXPECT_EQ(k1, CanonicalizeBody(BodyFromRows(2, thrice, {})));
  EXPECT_EQ(k1, CanonicalizeBody(BodyFromRows(2, scaled_dup, {})));

  // Duplicate balls collapse too.
  Ball ball{geom::Vec{0.0, 0.0}, 1.0};
  EXPECT_EQ(CanonicalizeBody(BodyFromRows(2, once, {ball})),
            CanonicalizeBody(BodyFromRows(2, once, {ball, ball})));
}

TEST(CanonicalTest, TrivialAndInfeasibleZeroRows) {
  // An all-zero row with b >= 0 carries no geometry; with b < 0 it empties
  // the body, which must be visible in the key.
  std::vector<Row> base{{geom::Vec{1.0, 0.0}, 1.0}};
  std::vector<Row> with_trivial = base;
  with_trivial.push_back({geom::Vec{0.0, 0.0}, 2.0});
  std::vector<Row> with_empty = base;
  with_empty.push_back({geom::Vec{0.0, 0.0}, -1.0});
  CanonicalBodyKey k = CanonicalizeBody(BodyFromRows(2, base, {}));
  EXPECT_EQ(k, CanonicalizeBody(BodyFromRows(2, with_trivial, {})));
  EXPECT_NE(k, CanonicalizeBody(BodyFromRows(2, with_empty, {})));
}

TEST(CanonicalTest, NegativeZeroCoefficientsAreCanonical) {
  std::vector<Row> pos{{geom::Vec{1.0, 0.0}, 0.0}};
  std::vector<Row> neg{{geom::Vec{1.0, -0.0}, -0.0}};
  EXPECT_EQ(CanonicalizeBody(BodyFromRows(2, pos, {})),
            CanonicalizeBody(BodyFromRows(2, neg, {})));
}

TEST(CanonicalTest, DistinctBodiesCollideFreeAcross10kSystems) {
  // 10k structurally distinct random systems must produce 10k distinct
  // keys. Coefficients are drawn from a wide integer range; a collision
  // here means either the hash or the canonicalization conflates distinct
  // geometry.
  std::mt19937_64 gen(3);
  std::uniform_int_distribution<int> coeff(-1000, 1000);
  std::uniform_int_distribution<int> dim_dist(1, 6);
  std::uniform_int_distribution<int> rows_dist(1, 8);
  std::set<CanonicalBodyKey> keys;
  std::set<std::vector<double>> seen_systems;
  int made = 0;
  while (made < 10000) {
    int dim = dim_dist(gen);
    int num_rows = rows_dist(gen);
    std::vector<Row> rows;
    for (int i = 0; i < num_rows; ++i) {
      geom::Vec a(dim);
      bool any = false;
      for (int j = 0; j < dim; ++j) {
        a[j] = coeff(gen);
        if (a[j] != 0) any = true;
      }
      if (!any) a[0] = 1;
      rows.push_back({a, static_cast<double>(coeff(gen))});
    }
    // Skip systems that are *canonically* equal to one already accepted
    // (row order, rescaling, duplicates) via an independent reference
    // normalization, so every accepted system is pairwise distinct
    // geometry and every key must be unique.
    std::vector<std::vector<double>> ref_rows;
    for (const Row& row : rows) {
      std::vector<double> r(row.a.begin(), row.a.end());
      r.push_back(row.b);
      double pivot = 0.0;
      for (double v : r) {
        if (v != 0.0) {
          pivot = std::fabs(v);
          break;
        }
      }
      if (pivot > 0.0) {
        for (double& v : r) v /= pivot;
      }
      ref_rows.push_back(std::move(r));
    }
    std::sort(ref_rows.begin(), ref_rows.end());
    ref_rows.erase(std::unique(ref_rows.begin(), ref_rows.end()),
                   ref_rows.end());
    std::vector<double> probe{static_cast<double>(dim)};
    for (const auto& r : ref_rows) {
      probe.insert(probe.end(), r.begin(), r.end());
    }
    if (!seen_systems.insert(probe).second) continue;
    ++made;
    keys.insert(CanonicalizeBody(BodyFromRows(dim, rows, {})));
  }
  EXPECT_EQ(keys.size(), 10000u);
}

TEST(CanonicalTest, TierRawAndSaltSeparateKeys) {
  ConvexBody body(2);
  body.AddHalfspace({1.0, 1.0}, 0.0);
  body.AddBall({0.0, 0.0}, 1.0);
  CanonicalBodyKey k = CanonicalizeBody(body);
  util::Fingerprint128 raw =
      RawBodyFingerprint(body, geom::Vec{0.0, 0.0}, 0.25, 1.5);
  CanonicalBodyKey t1 = CombineKeyWithParams(k, raw, 0.1, 42);
  CanonicalBodyKey t2 = CombineKeyWithParams(k, raw, 0.2, 42);
  CanonicalBodyKey t3 = CombineKeyWithParams(k, raw, 0.1, 43);
  EXPECT_NE(t1, t2);  // different ε tier
  EXPECT_NE(t1, t3);  // different rng salt
  EXPECT_EQ(t1, CombineKeyWithParams(k, raw, 0.1, 42));
  EXPECT_NE(t1, k);  // domain-separated from body keys
  // The key layout is pinned: every RngForKey stream, and so every body
  // estimate, derives from these bits.
  EXPECT_EQ(t1.fp.hi, 0xdfe003690bc1aad8ull);
  EXPECT_EQ(t1.fp.lo, 0x34fcef7c369bf9c3ull);

  // The raw form separates too: a rescaled representation of the same
  // canonical body (and likewise a perturbed inner seed) owns its own
  // estimate stream.
  ConvexBody scaled(2);
  scaled.AddHalfspace({2.0, 2.0}, 0.0);
  scaled.AddBall({0.0, 0.0}, 1.0);
  EXPECT_EQ(k, CanonicalizeBody(scaled));
  util::Fingerprint128 raw_scaled =
      RawBodyFingerprint(scaled, geom::Vec{0.0, 0.0}, 0.25, 1.5);
  EXPECT_NE(CombineKeyWithParams(k, raw_scaled, 0.1, 42), t1);
  util::Fingerprint128 raw_moved =
      RawBodyFingerprint(body, geom::Vec{0.1, 0.0}, 0.25, 1.5);
  EXPECT_NE(CombineKeyWithParams(k, raw_moved, 0.1, 42), t1);
}

TEST(CanonicalTest, RngForKeyIsAPureFunction) {
  ConvexBody body(3);
  body.AddHalfspace({1.0, 2.0, 3.0}, 1.0);
  body.AddBall({0.0, 0.0, 0.0}, 1.0);
  CanonicalBodyKey k = CanonicalizeBody(body);
  util::Rng r1 = RngForKey(k);
  util::Rng r2 = RngForKey(k);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(r1.Uniform01(), r2.Uniform01());
  }
  // A different key owns a different stream.
  body.AddHalfspace({1.0, 0.0, 0.0}, 0.0);
  util::Rng r3 = RngForKey(CanonicalizeBody(body));
  EXPECT_NE(RngForKey(k).Uniform01(), r3.Uniform01());
}

}  // namespace
}  // namespace mudb::convex
