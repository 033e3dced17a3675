#include "video/scene.h"

#include <gtest/gtest.h>

namespace sky::video {
namespace {

TEST(SceneGeneratorTest, DensityDrivesPopulation) {
  SceneOptions opts;
  opts.seed = 21;
  SceneGenerator quiet(opts);
  SceneGenerator busy(opts);
  double quiet_total = 0.0, busy_total = 0.0;
  for (int i = 0; i < 900; ++i) {  // 30 s of video
    quiet_total += quiet.NextFrame(0.05).objects.size();
    busy_total += busy.NextFrame(0.9).objects.size();
  }
  EXPECT_GT(busy_total, quiet_total * 3);
}

TEST(SceneGeneratorTest, ObjectsMoveAndEventuallyLeave) {
  SceneOptions opts;
  opts.seed = 22;
  SceneGenerator gen(opts);
  // Fill the scene, then cut the density; population must decay.
  for (int i = 0; i < 600; ++i) gen.NextFrame(0.8);
  size_t populated = gen.live_objects().size();
  ASSERT_GT(populated, 0u);
  for (int i = 0; i < 600; ++i) gen.NextFrame(0.0);
  EXPECT_LT(gen.live_objects().size(), populated);
}

TEST(SceneGeneratorTest, FramesAreWellFormed) {
  SceneOptions opts;
  opts.width = 80;
  opts.height = 45;
  SceneGenerator gen(opts);
  Frame f = gen.NextFrame(0.5);
  EXPECT_EQ(f.width, 80);
  EXPECT_EQ(f.height, 45);
  EXPECT_EQ(f.luma.size(), 80u * 45u);
  EXPECT_EQ(f.index, 0);
  Frame f2 = gen.NextFrame(0.5);
  EXPECT_EQ(f2.index, 1);
  EXPECT_GT(f2.timestamp_s, f.timestamp_s);
}

TEST(SceneGeneratorTest, SpawnsElectricVehicles) {
  SceneOptions opts;
  opts.seed = 23;
  opts.electric_fraction = 0.5;
  SceneGenerator gen(opts);
  bool saw_ev = false;
  for (int i = 0; i < 3000 && !saw_ev; ++i) {
    for (const SceneObject& o : gen.NextFrame(0.8).objects) {
      if (o.class_id == 2) saw_ev = true;
    }
  }
  EXPECT_TRUE(saw_ev);
}

}  // namespace
}  // namespace sky::video
