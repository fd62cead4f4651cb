// The multi-objective DSE answer:
//   * Explore is the best point of ExploreFrontier, bit for bit;
//   * Pareto properties — no frontier point dominates another, every point
//     fits its platform, and the frontier contains the legacy single-
//     objective winner on both paper platforms;
//   * the ResNet-style workload explores on both platforms.
// DseGoldenTest in test_dse.cc pins the exact frontiers.
#include <gtest/gtest.h>

#include "dse/search.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"

namespace hdnn {
namespace {

void ExpectSameResult(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.estimated_cycles, b.estimated_cycles);  // bit-exact
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.power_watts, b.power_watts);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
}

TEST(DseParallelTest, ExploreMatchesFrontierBest) {
  const DseEngine engine(Vu9pSpec());
  const DseResult best = engine.Explore(BuildTinyCnn());
  const DseFrontier frontier = engine.ExploreFrontier(BuildTinyCnn());
  ExpectSameResult(best, frontier.best);
}

TEST(DseParallelTest, FrontierHasNoDominatedPoint) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseFrontier f =
        DseEngine(*spec).ExploreFrontier(BuildVgg16ConvOnly());
    ASSERT_FALSE(f.points.empty()) << spec->name;
    for (std::size_t i = 0; i < f.points.size(); ++i) {
      for (std::size_t j = 0; j < f.points.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(Dominates(f.points[i], f.points[j]))
            << spec->name << ": point " << i << " ("
            << f.points[i].config.ToString() << ") dominates point " << j
            << " (" << f.points[j].config.ToString() << ")";
      }
    }
  }
}

TEST(DseParallelTest, FrontierPointsAreFeasibleAndSorted) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseFrontier f =
        DseEngine(*spec).ExploreFrontier(BuildVgg16ConvOnly());
    for (std::size_t i = 0; i < f.points.size(); ++i) {
      const ParetoPoint& p = f.points[i];
      EXPECT_NO_THROW(p.config.Validate());
      EXPECT_TRUE(FitsDeviceLimits(p.implementation, *spec))
          << p.config.ToString();
      EXPECT_TRUE(FitsPerDie(p.implementation, p.config, *spec))
          << p.config.ToString();
      EXPECT_GT(p.power_watts, 0);
      if (i > 0) {
        EXPECT_GE(p.objective, f.points[i - 1].objective) << "sort order";
      }
    }
  }
}

TEST(DseParallelTest, FrontierContainsLegacyWinner) {
  // Acceptance: multi-objective search must not lose the best-throughput
  // design — the paper's published config stays on the frontier for both
  // evaluation platforms.
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseEngine engine(*spec);
    const DseFrontier f = engine.ExploreFrontier(BuildVgg16ConvOnly());
    bool found = false;
    for (const ParetoPoint& p : f.points) {
      if (p.config == f.best.config) {
        found = true;
        EXPECT_EQ(p.estimated_cycles, f.best.estimated_cycles);
        EXPECT_EQ(p.mapping, f.best.mapping);
      }
    }
    EXPECT_TRUE(found) << spec->name
                       << ": legacy winner missing from the frontier";
  }
}

TEST(DseParallelTest, ResNetStyleExploresOnBothPlatforms) {
  // The new workload (1x1/3x3/7x7 kernels, stride-2 downsampling) must be
  // schedulable end-to-end on both paper platforms, with the stride-2
  // layers mapped to Spatial mode (Winograd requires stride 1).
  const Model model = BuildResNet18Style();
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseResult r = DseEngine(*spec).Explore(model);
    ASSERT_EQ(static_cast<int>(r.mapping.size()), model.num_layers());
    for (int i = 0; i < model.num_layers(); ++i) {
      if (model.layer(i).stride > 1) {
        EXPECT_EQ(r.mapping[static_cast<std::size_t>(i)].mode,
                  ConvMode::kSpatial)
            << spec->name << " layer " << model.layer(i).name;
      }
    }
  }
}

}  // namespace
}  // namespace hdnn
