#include "core/knob.h"

#include <gtest/gtest.h>

namespace sky::core {
namespace {

KnobSpace MakeSpace() {
  KnobSpace s;
  EXPECT_TRUE(s.AddKnob("fps", {30, 15, 5}).ok());
  EXPECT_TRUE(s.AddKnob("tiles", {1, 4}).ok());
  return s;
}

TEST(KnobSpaceTest, RegistrationAndLookup) {
  KnobSpace s = MakeSpace();
  EXPECT_EQ(s.NumKnobs(), 2u);
  EXPECT_EQ(s.NumConfigs(), 6u);
  EXPECT_EQ(s.knob(1).name, "tiles");
}

TEST(KnobSpaceTest, RejectsBadKnobs) {
  KnobSpace s;
  EXPECT_FALSE(s.AddKnob("empty", {}).ok());
  EXPECT_TRUE(s.AddKnob("a", {1}).ok());
  EXPECT_FALSE(s.AddKnob("a", {2}).ok());
}

TEST(KnobSpaceTest, IdRoundTrip) {
  KnobSpace s = MakeSpace();
  for (size_t id = 0; id < s.NumConfigs(); ++id) {
    KnobConfig c = s.IdToConfig(id);
    EXPECT_EQ(s.ConfigToId(c), id);
    EXPECT_TRUE(s.ValidateConfig(c).ok());
  }
}

TEST(KnobSpaceTest, ValueAccess) {
  KnobSpace s = MakeSpace();
  KnobConfig c = {1, 0};  // fps=15, tiles=1
  EXPECT_DOUBLE_EQ(s.Value(c, 0), 15);
  EXPECT_DOUBLE_EQ(s.Value(c, 1), 1);
}

TEST(KnobSpaceTest, AllConfigsEnumerates) {
  KnobSpace s = MakeSpace();
  std::vector<KnobConfig> all = s.AllConfigs();
  EXPECT_EQ(all.size(), 6u);
  // All distinct.
  std::set<size_t> ids;
  for (const KnobConfig& c : all) ids.insert(s.ConfigToId(c));
  EXPECT_EQ(ids.size(), 6u);
}

TEST(KnobSpaceTest, NeighborsAreOneStepMoves) {
  KnobSpace s = MakeSpace();
  // Corner config {0,0}: can only move up on each knob.
  std::vector<KnobConfig> n = s.Neighbors({0, 0});
  EXPECT_EQ(n.size(), 2u);
  // Middle config {1,0}: up/down on fps, up on tiles.
  n = s.Neighbors({1, 0});
  EXPECT_EQ(n.size(), 3u);
  for (const KnobConfig& nb : n) {
    size_t diff = 0;
    KnobConfig base = {1, 0};
    for (size_t i = 0; i < nb.size(); ++i) {
      diff += nb[i] != base[i] ? 1 : 0;
    }
    EXPECT_EQ(diff, 1u);
  }
}

TEST(KnobSpaceTest, ValidateConfigCatchesErrors) {
  KnobSpace s = MakeSpace();
  EXPECT_FALSE(s.ValidateConfig({0}).ok());
  EXPECT_FALSE(s.ValidateConfig({0, 9}).ok());
  EXPECT_TRUE(s.ValidateConfig({2, 1}).ok());
}

TEST(KnobSpaceTest, ToStringReadable) {
  KnobSpace s = MakeSpace();
  EXPECT_EQ(s.ToString({0, 1}), "fps=30, tiles=4");
}

TEST(KnobSpaceTest, EmptySpaceHasNoConfigs) {
  KnobSpace s;
  EXPECT_EQ(s.NumConfigs(), 0u);
}

}  // namespace
}  // namespace sky::core
