#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "math/mat4.hpp"
#include "math/vec.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 5);
  EXPECT_DOUBLE_EQ(s.y, 7);
  EXPECT_DOUBLE_EQ(s.z, 9);
  Vec3 d = b - a;
  EXPECT_DOUBLE_EQ(d.x, 3);
  Vec3 m = a * 2.0;
  EXPECT_DOUBLE_EQ(m.z, 6);
  EXPECT_DOUBLE_EQ((2.0 * a).z, 6);
}

TEST(Vec3, DotAndCross) {
  Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  Vec3 c = x.cross(y);
  EXPECT_DOUBLE_EQ(c.x, z.x);
  EXPECT_DOUBLE_EQ(c.y, z.y);
  EXPECT_DOUBLE_EQ(c.z, z.z);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}.norm()), 5.0);
}

TEST(Vec3, NormalizedHandlesZero) {
  Vec3 zero{0, 0, 0};
  Vec3 n = zero.normalized();
  EXPECT_DOUBLE_EQ(n.norm(), 0.0);
  Vec3 v = Vec3{2, 0, 0}.normalized();
  EXPECT_DOUBLE_EQ(v.x, 1.0);
}

TEST(ScalarHelpers, ClampLerpSmoothstep) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(smoothstep(0.0, 1.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(smoothstep(0.0, 1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(smoothstep(0.0, 1.0, 0.5), 0.5);
}

TEST(Mat4, IdentityTransforms) {
  Mat4 id = Mat4::identity();
  Vec3 p{1, 2, 3};
  Vec3 q = id.transform_point(p);
  EXPECT_DOUBLE_EQ(q.x, 1);
  EXPECT_DOUBLE_EQ(q.y, 2);
  EXPECT_DOUBLE_EQ(q.z, 3);
}

TEST(Mat4, TranslationAffectsPointsNotVectors) {
  Mat4 t = Mat4::translation({1, 2, 3});
  Vec3 p = t.transform_point({0, 0, 0});
  EXPECT_DOUBLE_EQ(p.x, 1);
  Vec3 v = t.transform_vector({1, 0, 0});
  EXPECT_DOUBLE_EQ(v.x, 1);
  EXPECT_DOUBLE_EQ(v.y, 0);
}

TEST(Mat4, RotationZQuarterTurn) {
  Mat4 r = Mat4::rotation_z(std::numbers::pi / 2);
  Vec3 p = r.transform_point({1, 0, 0});
  EXPECT_NEAR(p.x, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
}

TEST(Mat4, InverseRoundTrips) {
  Mat4 m = Mat4::translation({1, -2, 0.5}) * Mat4::rotation_x(0.7) *
           Mat4::rotation_y(-0.3) * Mat4::scaling({2, 3, 0.5});
  Mat4 inv = m.inverse();
  Vec3 p{0.3, -1.2, 2.5};
  Vec3 round = inv.transform_point(m.transform_point(p));
  EXPECT_NEAR(round.x, p.x, 1e-9);
  EXPECT_NEAR(round.y, p.y, 1e-9);
  EXPECT_NEAR(round.z, p.z, 1e-9);
}

TEST(Mat4, InverseThrowsOnSingular) {
  Mat4 zero;
  EXPECT_THROW(zero.inverse(), Error);
}

TEST(Mat4, LookAtPlacesEye) {
  Mat4 cam = Mat4::look_at({0, 0, 5}, {0, 0, 0}, {0, 1, 0});
  Vec3 eye = cam.transform_point({0, 0, 0});
  EXPECT_NEAR(eye.z, 5.0, 1e-12);
  // Camera -z axis should point towards the target.
  Vec3 view_dir = cam.transform_vector({0, 0, -1});
  EXPECT_NEAR(view_dir.z, -1.0, 1e-12);
}

TEST(Vec4, ConstructionAndOps) {
  Vec4 a{1, 2, 3, 4};
  Vec4 b(Vec3{5, 6, 7}, 8);
  Vec4 sum = a + b;
  EXPECT_DOUBLE_EQ(sum.x, 6);
  EXPECT_DOUBLE_EQ(sum.w, 12);
  Vec4 scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled.z, 6);
  Vec3 xyz = b.xyz();
  EXPECT_DOUBLE_EQ(xyz.y, 6);
}

TEST(Mat4, ScalingScalesAxes) {
  Mat4 s = Mat4::scaling({2, 3, 4});
  Vec3 p = s.transform_point({1, 1, 1});
  EXPECT_DOUBLE_EQ(p.x, 2);
  EXPECT_DOUBLE_EQ(p.y, 3);
  EXPECT_DOUBLE_EQ(p.z, 4);
}

TEST(Mat4, RotationXAndYQuarterTurns) {
  Vec3 y = Mat4::rotation_x(std::numbers::pi / 2).transform_point({0, 1, 0});
  EXPECT_NEAR(y.z, 1.0, 1e-12);
  EXPECT_NEAR(y.y, 0.0, 1e-12);
  Vec3 z = Mat4::rotation_y(std::numbers::pi / 2).transform_point({0, 0, 1});
  EXPECT_NEAR(z.x, 1.0, 1e-12);
  EXPECT_NEAR(z.z, 0.0, 1e-12);
}

TEST(Mat4, CompositionOrder) {
  // translation * rotation applies rotation first.
  Mat4 m = Mat4::translation({10, 0, 0}) *
           Mat4::rotation_z(std::numbers::pi / 2);
  Vec3 p = m.transform_point({1, 0, 0});
  EXPECT_NEAR(p.x, 10.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
}

}  // namespace
}  // namespace ifet
