#include "geometry/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace rabit::geom {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Vec3, Arithmetic) {
  Vec3 a(1, 2, 3);
  Vec3 b(4, 5, 6);
  EXPECT_TRUE(approx_equal(a + b, Vec3(5, 7, 9)));
  EXPECT_TRUE(approx_equal(b - a, Vec3(3, 3, 3)));
  EXPECT_TRUE(approx_equal(a * 2.0, Vec3(2, 4, 6)));
  EXPECT_TRUE(approx_equal(2.0 * a, a * 2.0));
  EXPECT_TRUE(approx_equal(-a, Vec3(-1, -2, -3)));
}

TEST(Vec3, DotCrossNorm) {
  Vec3 x(1, 0, 0);
  Vec3 y(0, 1, 0);
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  EXPECT_TRUE(approx_equal(x.cross(y), Vec3(0, 0, 1)));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm_squared(), 25.0);
}

TEST(Vec3, NormalizedUnitLength) {
  Vec3 v(2, -3, 6);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  // Zero vector stays zero rather than dividing by ~0.
  EXPECT_TRUE(approx_equal(Vec3().normalized(), Vec3()));
}

TEST(Vec3, Lerp) {
  Vec3 a(0, 0, 0);
  Vec3 b(10, 20, 30);
  EXPECT_TRUE(approx_equal(lerp(a, b, 0.0), a));
  EXPECT_TRUE(approx_equal(lerp(a, b, 1.0), b));
  EXPECT_TRUE(approx_equal(lerp(a, b, 0.5), Vec3(5, 10, 15)));
}

// --- Aabb -------------------------------------------------------------------

TEST(Aabb, ConstructionValidation) {
  EXPECT_NO_THROW(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  EXPECT_THROW(Aabb(Vec3(1, 0, 0), Vec3(0, 1, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Aabb::from_center(Vec3(), Vec3(-1, 1, 1))),
               std::invalid_argument);
}

TEST(Aabb, FromCenter) {
  Aabb box = Aabb::from_center(Vec3(1, 1, 1), Vec3(2, 4, 6));
  EXPECT_TRUE(approx_equal(box.min, Vec3(0, -1, -2)));
  EXPECT_TRUE(approx_equal(box.max, Vec3(2, 3, 4)));
  EXPECT_TRUE(approx_equal(box.center(), Vec3(1, 1, 1)));
  EXPECT_TRUE(approx_equal(box.size(), Vec3(2, 4, 6)));
  EXPECT_DOUBLE_EQ(box.volume(), 48.0);
}

TEST(Aabb, ContainsBoundaryInclusive) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_TRUE(box.contains(Vec3(0.5, 0.5, 0.5)));
  EXPECT_TRUE(box.contains(Vec3(0, 0, 0)));
  EXPECT_TRUE(box.contains(Vec3(1, 1, 1)));
  EXPECT_FALSE(box.contains(Vec3(1.001, 0.5, 0.5)));
  EXPECT_FALSE(box.contains(Vec3(0.5, -0.001, 0.5)));
}

TEST(Aabb, IntersectsSymmetric) {
  Aabb a(Vec3(0, 0, 0), Vec3(2, 2, 2));
  Aabb b(Vec3(1, 1, 1), Vec3(3, 3, 3));
  Aabb c(Vec3(5, 5, 5), Vec3(6, 6, 6));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  // Touching faces intersect.
  Aabb d(Vec3(2, 0, 0), Vec3(3, 2, 2));
  EXPECT_TRUE(a.intersects(d));
}

TEST(Aabb, InflateAndClamp) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  Aabb grown = box.inflated(0.5);
  EXPECT_TRUE(approx_equal(grown.min, Vec3(-0.5, -0.5, -0.5)));
  EXPECT_TRUE(approx_equal(grown.max, Vec3(1.5, 1.5, 1.5)));
  // Negative inflation never inverts.
  Aabb shrunk = box.inflated(-2.0);
  EXPECT_LE(shrunk.min.x, shrunk.max.x);
  EXPECT_TRUE(approx_equal(box.clamp(Vec3(5, 0.5, -3)), Vec3(1, 0.5, 0)));
}

TEST(Aabb, DistanceTo) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_DOUBLE_EQ(box.distance_to(Vec3(0.5, 0.5, 0.5)), 0.0);
  EXPECT_DOUBLE_EQ(box.distance_to(Vec3(2, 0.5, 0.5)), 1.0);
  EXPECT_NEAR(box.distance_to(Vec3(2, 2, 1)), std::sqrt(2.0), 1e-12);
}

TEST(Aabb, UnitedAndTranslated) {
  Aabb a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  Aabb b(Vec3(2, -1, 0), Vec3(3, 0.5, 2));
  Aabb u = a.united(b);
  EXPECT_TRUE(approx_equal(u.min, Vec3(0, -1, 0)));
  EXPECT_TRUE(approx_equal(u.max, Vec3(3, 1, 2)));
  Aabb t = a.translated(Vec3(1, 2, 3));
  EXPECT_TRUE(approx_equal(t.min, Vec3(1, 2, 3)));
}

// --- segment queries ----------------------------------------------------------

TEST(SegmentBox, StraightThrough) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  Segment s{Vec3(-1, 0.5, 0.5), Vec3(2, 0.5, 0.5)};
  auto t = intersect(s, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0 / 3.0, 1e-9);
  EXPECT_TRUE(intersects(s, box));
}

TEST(SegmentBox, Miss) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FALSE(intersects(Segment{Vec3(-1, 2, 0.5), Vec3(2, 2, 0.5)}, box));
  EXPECT_FALSE(intersects(Segment{Vec3(2, 0.5, 0.5), Vec3(3, 0.5, 0.5)}, box));
}

TEST(SegmentBox, EndsInside) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  Segment s{Vec3(-1, 0.5, 0.5), Vec3(0.5, 0.5, 0.5)};
  EXPECT_TRUE(intersects(s, box));
  Segment inside{Vec3(0.2, 0.2, 0.2), Vec3(0.8, 0.8, 0.8)};
  auto t = intersect(inside, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.0);  // already inside at the start
}

TEST(SegmentBox, AxisParallelOutsideSlab) {
  Aabb box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // Parallel to x, but offset in y beyond the slab.
  EXPECT_FALSE(intersects(Segment{Vec3(-1, 1.5, 0.5), Vec3(2, 1.5, 0.5)}, box));
  // Degenerate (point) segment.
  EXPECT_TRUE(intersects(Segment{Vec3(0.5, 0.5, 0.5), Vec3(0.5, 0.5, 0.5)}, box));
  EXPECT_FALSE(intersects(Segment{Vec3(2, 2, 2), Vec3(2, 2, 2)}, box));
}

TEST(SegmentPoint, Distance) {
  Segment s{Vec3(0, 0, 0), Vec3(10, 0, 0)};
  EXPECT_DOUBLE_EQ(distance(s, Vec3(5, 3, 0)), 3.0);
  EXPECT_DOUBLE_EQ(distance(s, Vec3(-4, 3, 0)), 5.0);  // clamps to endpoint
  EXPECT_DOUBLE_EQ(distance(s, Vec3(12, 0, 0)), 2.0);
}

TEST(SegmentSegment, Distance) {
  Segment a{Vec3(0, 0, 0), Vec3(10, 0, 0)};
  Segment b{Vec3(0, 5, 0), Vec3(10, 5, 0)};  // parallel
  EXPECT_NEAR(distance(a, b), 5.0, 1e-9);
  Segment c{Vec3(5, -1, 3), Vec3(5, 1, 3)};  // crossing above
  EXPECT_NEAR(distance(a, c), 3.0, 1e-9);
  Segment d{Vec3(4, 0, 0), Vec3(6, 0, 0)};  // overlapping collinear
  EXPECT_NEAR(distance(a, d), 0.0, 1e-9);
  // Degenerate segments reduce to point distances.
  Segment p{Vec3(0, 2, 0), Vec3(0, 2, 0)};
  EXPECT_NEAR(distance(a, p), 2.0, 1e-9);
}

/// Property: segment/box intersection agrees with dense point sampling.
class SegmentBoxProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SegmentBoxProperty, MatchesDenseSampling) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  Aabb box(Vec3(-0.5, -0.5, -0.5), Vec3(0.5, 0.5, 0.5));
  for (int trial = 0; trial < 200; ++trial) {
    Segment s{Vec3(coord(rng), coord(rng), coord(rng)),
              Vec3(coord(rng), coord(rng), coord(rng))};
    bool sampled_hit = false;
    for (int i = 0; i <= 400; ++i) {
      if (box.contains(s.point_at(i / 400.0))) {
        sampled_hit = true;
        break;
      }
    }
    bool exact_hit = intersects(s, box);
    // Dense sampling may *miss* a grazing hit, but must never find a hit the
    // exact test misses.
    if (sampled_hit) {
      EXPECT_TRUE(exact_hit) << "seed " << GetParam() << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentBoxProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- polyline ----------------------------------------------------------------

TEST(Polyline, LengthAndSample) {
  Polyline p({Vec3(0, 0, 0), Vec3(3, 0, 0), Vec3(3, 4, 0)});
  EXPECT_DOUBLE_EQ(p.length(), 7.0);
  EXPECT_TRUE(approx_equal(p.sample(0.0), Vec3(0, 0, 0)));
  EXPECT_TRUE(approx_equal(p.sample(1.0), Vec3(3, 4, 0)));
  EXPECT_TRUE(approx_equal(p.sample(3.0 / 7.0), Vec3(3, 0, 0)));
}

TEST(Polyline, Resample) {
  Polyline p({Vec3(0, 0, 0), Vec3(10, 0, 0)});
  auto pts = p.resample(11);
  ASSERT_EQ(pts.size(), 11u);
  for (int i = 0; i <= 10; ++i) EXPECT_NEAR(pts[static_cast<std::size_t>(i)].x, i, 1e-9);
  EXPECT_THROW(p.resample(1), std::invalid_argument);
}

TEST(Polyline, EmptyAndSingleton) {
  Polyline empty;
  EXPECT_THROW(static_cast<void>(empty.sample(0.5)), std::logic_error);
  Polyline single({Vec3(1, 2, 3)});
  EXPECT_TRUE(approx_equal(single.sample(0.7), Vec3(1, 2, 3)));
}

// --- transforms -----------------------------------------------------------

TEST(Transform, IdentityAndTranslation) {
  Transform id;
  EXPECT_TRUE(approx_equal(id.apply(Vec3(1, 2, 3)), Vec3(1, 2, 3)));
  Transform t = Transform::translation(Vec3(1, 0, -1));
  EXPECT_TRUE(approx_equal(t.apply(Vec3(1, 2, 3)), Vec3(2, 2, 2)));
}

TEST(Transform, RotationZ) {
  Transform r = Transform::rotation_z(kPi / 2);
  EXPECT_TRUE(approx_equal(r.apply(Vec3(1, 0, 0)), Vec3(0, 1, 0)));
  EXPECT_TRUE(approx_equal(r.apply(Vec3(0, 1, 0)), Vec3(-1, 0, 0)));
  EXPECT_NEAR(r.yaw(), kPi / 2, 1e-12);
}

TEST(Transform, ComposeAssociates) {
  Transform a = Transform::from_euler(0.1, 0.2, 0.3, Vec3(1, 2, 3));
  Transform b = Transform::from_euler(-0.4, 0.5, -0.6, Vec3(-1, 0, 2));
  Vec3 p(0.7, -0.3, 1.1);
  EXPECT_TRUE(approx_equal((a * b).apply(p), a.apply(b.apply(p)), 1e-9));
}

TEST(Transform, InverseRoundTrips) {
  Transform t = Transform::from_euler(0.3, -0.7, 1.2, Vec3(0.5, -1.5, 2.0));
  Vec3 p(1, 2, 3);
  EXPECT_TRUE(approx_equal(t.inverse().apply(t.apply(p)), p, 1e-9));
  EXPECT_TRUE(approx_equal(t.apply(t.inverse().apply(p)), p, 1e-9));
}

TEST(Transform, RotationPreservesLength) {
  Transform t = Transform::from_euler(0.9, 0.4, -1.3, Vec3());
  Vec3 v(2, -1, 4);
  EXPECT_NEAR(t.rotate(v).norm(), v.norm(), 1e-9);
}

// --- frame fitting ----------------------------------------------------------

TEST(FrameFit, RecoversExactTransform) {
  Transform truth = Transform::translation(Vec3(0.6, 0.1, 0.0)) * Transform::rotation_z(kPi);
  std::vector<Vec3> from = {Vec3(0.1, 0.2, 0.0), Vec3(0.3, -0.1, 0.1), Vec3(-0.2, 0.4, 0.05),
                            Vec3(0.25, 0.25, 0.2)};
  std::vector<Vec3> to;
  for (const Vec3& p : from) to.push_back(truth.apply(p));

  FrameFit fit = fit_frame(from, to);
  EXPECT_LT(fit.rms_error, 1e-9);
  for (const Vec3& p : from) {
    EXPECT_TRUE(approx_equal(fit.transform.apply(p), truth.apply(p), 1e-9));
  }
}

TEST(FrameFit, NoisyCorrespondencesReportHonestError) {
  // The paper's testbed measurement: per-point noise of ~2 cm produced an
  // average unification error around 3 cm, making the global frame unusable.
  Transform truth = Transform::translation(Vec3(0.6, 0.1, 0.0)) * Transform::rotation_z(kPi);
  std::mt19937 rng(11);
  std::normal_distribution<double> noise(0.0, 0.02);
  std::uniform_real_distribution<double> coord(-0.4, 0.4);

  std::vector<Vec3> from;
  std::vector<Vec3> to;
  for (int i = 0; i < 12; ++i) {
    Vec3 p(coord(rng), coord(rng), std::abs(coord(rng)) * 0.5);
    from.push_back(p);
    to.push_back(truth.apply(p) + Vec3(noise(rng), noise(rng), noise(rng)));
  }
  FrameFit fit = fit_frame(from, to);
  EXPECT_GT(fit.rms_error, 0.005);  // noise shows up...
  EXPECT_LT(fit.rms_error, 0.08);   // ...but the fit is not garbage
}

TEST(FrameFit, RejectsDegenerateInput) {
  EXPECT_THROW(static_cast<void>(fit_frame({Vec3()}, {Vec3()})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(fit_frame({Vec3(), Vec3(1, 0, 0)}, {Vec3()})),
               std::invalid_argument);
}

}  // namespace
}  // namespace rabit::geom
