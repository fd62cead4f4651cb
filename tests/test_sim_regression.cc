// Bit-exactness regression tests for the flat-scratch simulator COMP
// datapath: a mixed Spatial/Winograd model runs through the optimized
// simulator and must match (a) the golden refconv/winograd references
// computed fresh each run, and (b) output vectors captured from the
// pre-refactor simulator (vector-of-vectors scratch, per-element slab
// checks). (b) pins the exact integer semantics: if a change is
// "consistently wrong" — altering the simulator and reference together —
// the captured constants still catch it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/builders.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::RunEndToEnd;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

/// FNV-1a over the output tensor's int16 elements, low byte first.
std::uint64_t Fnv1a(const Tensor<std::int16_t>& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint16_t v = static_cast<std::uint16_t>(t.flat(i));
    for (int b = 0; b < 2; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Three layers covering both CONV modes, both dataflows, ReLU, pooling and
/// the Winograd<->Spatial layout transforms between consecutive layers.
Model MixedModel() {
  Model m("regression_mixed", FmapShape{8, 14, 14});
  ConvLayer l1;
  l1.name = "wino_is";
  l1.in_channels = 8;
  l1.out_channels = 16;
  l1.relu = true;
  m.Append(l1);
  ConvLayer l2;
  l2.name = "spat_ws";
  l2.in_channels = 16;
  l2.out_channels = 16;
  l2.pool = 2;
  m.Append(l2);
  ConvLayer l3;
  l3.name = "wino_ws";
  l3.in_channels = 16;
  l3.out_channels = 8;
  l3.relu = true;
  m.Append(l3);
  return m;
}

std::vector<LayerMapping> MixedMapping() {
  return {
      {ConvMode::kWinograd, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
      {ConvMode::kWinograd, Dataflow::kWeightStationary},
  };
}

/// Captured from the pre-refactor simulator (seed 11, TestConfig geometry).
/// Do NOT regenerate these from a current build to make a failure go away:
/// they are the contract that optimisation work preserves the original
/// integer semantics.
struct CapturedOutput {
  std::int64_t elements;
  std::uint64_t fnv1a;
  std::int16_t first8[8];
  std::int16_t last4[4];
};

constexpr CapturedOutput kCapturedPt4 = {
    392,
    0xbe6daf022dc5627eull,
    {268, 62, 187, 165, 235, 105, 0, 0},
    {177, 0, 0, 0},
};
constexpr CapturedOutput kCapturedPt6 = {
    392,
    0x919159783e8f94a5ull,
    {272, 46, 200, 174, 251, 111, 0, 0},
    {153, 0, 0, 0},
};

class MixedModelRegression : public ::testing::TestWithParam<int> {};

TEST_P(MixedModelRegression, MatchesGoldenAndCapturedVectors) {
  const int pt = GetParam();
  const CapturedOutput& captured = pt == 4 ? kCapturedPt4 : kCapturedPt6;
  auto r = RunEndToEnd(MixedModel(), TestConfig(pt), TestSpec(),
                       MixedMapping(), /*seed=*/11);

  // (a) Fresh golden reference.
  EXPECT_EQ(r.sim_out, r.golden_out);

  // (b) Pre-refactor captured vectors.
  ASSERT_EQ(r.sim_out.elements(), captured.elements);
  EXPECT_EQ(Fnv1a(r.sim_out), captured.fnv1a)
      << "simulator output diverged from the pre-refactor capture";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.sim_out.flat(i), captured.first8[i]) << "element " << i;
  }
  for (int i = 0; i < 4; ++i) {
    const std::int64_t idx = captured.elements - 4 + i;
    EXPECT_EQ(r.sim_out.flat(idx), captured.last4[i]) << "element " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(BothTileSizes, MixedModelRegression,
                         ::testing::Values(4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pt" + std::to_string(info.param);
                         });

// The Runtime now keeps its DramModel and Accelerator (with all COMP
// scratch arenas) alive across Execute calls. Repeated executions must be
// bit- and cycle-identical to the first — i.e. arena reuse must be
// invisible.
TEST(RuntimeReuseTest, RepeatedExecutesAreBitAndCycleIdentical) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(m, MixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport first = runtime.Execute(m, cm, weights, input);
  for (int i = 0; i < 3; ++i) {
    const RunReport again = runtime.Execute(m, cm, weights, input);
    EXPECT_EQ(again.output, first.output) << "repeat " << i;
    EXPECT_EQ(again.stats.total_cycles, first.stats.total_cycles);
    EXPECT_EQ(again.stats.dram_words_read, first.stats.dram_words_read);
    EXPECT_EQ(again.stats.macs_executed, first.stats.macs_executed);
  }

  // Interleaving a different program through the same Runtime must not
  // perturb a later re-run of the original (stale buffer/arena contents
  // must never leak between programs).
  const Model other = ::hdnn::BuildSingleConv(4, 8, 10, 10, 3);
  const std::vector<LayerMapping> other_map{
      {ConvMode::kSpatial, Dataflow::kInputStationary}};
  const CompiledModel other_cm = compiler.Compile(other, other_map);
  runtime.Execute(other, other_cm, SyntheticWeights(other, 3),
                  ::hdnn::testing::MakeInput(other.InputOf(0), 4));
  const RunReport after = runtime.Execute(m, cm, weights, input);
  EXPECT_EQ(after.output, first.output);
  EXPECT_EQ(after.stats.total_cycles, first.stats.total_cycles);
}

/// Golden output of MixedModel under `weights` (refconv/winograd
/// references, independent of the Runtime).
Tensor<std::int16_t> MixedGolden(const CompiledModel& cm, const Model& m,
                                 const ModelWeightsQ& weights,
                                 const Tensor<std::int16_t>& input) {
  std::vector<LayerMapping> effective;
  for (const LayerPlan& plan : cm.plans) effective.push_back(plan.mapping);
  return ::hdnn::testing::GoldenForward(m, weights, input, effective, cm.cfg,
                                        cm.base_shift);
}

// Fault thresholds (DramFault::after_total_words) count the epoch's
// functional traffic, so every functional Execute on one Runtime must
// report the same DRAM counters as the first, whatever the Runtime kept
// from the run before.
TEST(RuntimeReuseTest, RepeatedExecutesKeepTrafficCountersIdentical) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const CompiledModel cm = Compiler(cfg, spec).Compile(m, MixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport first = runtime.Execute(m, cm, weights, input);
  const std::int64_t read = runtime.dram()->words_read();
  const std::int64_t written = runtime.dram()->words_written();
  EXPECT_EQ(first.output, MixedGolden(cm, m, weights, input));
  for (int i = 0; i < 3; ++i) {
    const RunReport again = runtime.Execute(m, cm, weights, input);
    EXPECT_EQ(runtime.dram()->words_read(), read) << "repeat " << i;
    EXPECT_EQ(runtime.dram()->words_written(), written) << "repeat " << i;
    EXPECT_EQ(again.output, first.output) << "repeat " << i;
    EXPECT_EQ(again.stats.total_cycles, first.stats.total_cycles);
  }
}

// Weights mutated in place between two Executes on one Runtime: the second
// run must compute with the new weights.
TEST(RuntimeReuseTest, InPlaceWeightMutationIsSeen) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const CompiledModel cm = Compiler(cfg, spec).Compile(m, MixedMapping());
  ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport before = runtime.Execute(m, cm, weights, input);
  weights[2].weights.at(0, 0, 1, 1) = 120;
  const Tensor<std::int16_t> golden = MixedGolden(cm, m, weights, input);
  ASSERT_NE(golden, before.output) << "the mutation must change the output";
  const RunReport after = runtime.Execute(m, cm, weights, input);
  EXPECT_EQ(after.output, golden);
}

// A timing-only Execute (which skips data preparation) between two
// functional ones leaves the later functional run unchanged.
TEST(RuntimeReuseTest, TimingOnlyRunBetweenFunctionalRunsIsInvisible) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const CompiledModel cm = Compiler(cfg, spec).Compile(m, MixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport first = runtime.Execute(m, cm, weights, input);
  const std::int64_t read = runtime.dram()->words_read();
  const std::int64_t written = runtime.dram()->words_written();
  const RunReport timing =
      runtime.Execute(m, cm, weights, input, /*functional=*/false);
  EXPECT_EQ(timing.stats.total_cycles, first.stats.total_cycles);
  const RunReport later = runtime.Execute(m, cm, weights, input);
  EXPECT_EQ(later.output, first.output);
  EXPECT_EQ(later.stats.total_cycles, first.stats.total_cycles);
  EXPECT_EQ(runtime.dram()->words_read(), read);
  EXPECT_EQ(runtime.dram()->words_written(), written);
}

// A counted host write through dram() between two runs (here: into the
// resident weight image) must force the next run to re-pack.
TEST(RuntimeReuseTest, HostWriteThroughDramForcesRepack) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const CompiledModel cm = Compiler(cfg, spec).Compile(m, MixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport first = runtime.Execute(m, cm, weights, input);
  for (std::int64_t a = 0; a < cm.fmap_base; ++a) {
    runtime.dram()->Write(a, 77);
  }
  const RunReport again = runtime.Execute(m, cm, weights, input);
  EXPECT_EQ(again.output, first.output);
}

TEST(DramModelResetTest, ResetKeepingPrefixEqualsResetPlusRewrite) {
  std::vector<std::int16_t> contents(64);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<std::int16_t>(i + 1);
  }
  DramModel warm(64);
  DramModel cold(64);
  for (DramModel* d : {&warm, &cold}) {
    d->WriteBlock(0, contents);
    d->Read(40);
    d->Allocate(8);
  }
  cold.Reset(64);
  cold.WriteBlock(0, std::span<const std::int16_t>(contents).first(16));
  warm.ResetKeepingPrefix(16);
  EXPECT_TRUE(std::ranges::equal(warm.ViewRun(0, 64), cold.ViewRun(0, 64)));
  EXPECT_EQ(warm.ViewRun(15, 2)[0], 16);
  EXPECT_EQ(warm.ViewRun(15, 2)[1], 0);
  EXPECT_EQ(warm.words_read(), cold.words_read());
  EXPECT_EQ(warm.words_written(), cold.words_written());
  EXPECT_EQ(warm.allocated_words(), 0);

  EXPECT_THROW(warm.ResetKeepingPrefix(65), Error);
  warm.ArmFault({/*after_total_words=*/1, /*addr=*/0, /*xor_mask=*/1});
  EXPECT_THROW(warm.ResetKeepingPrefix(16), Error)
      << "a warm re-stage cannot replay an armed fault";
}

TEST(DramModelResetTest, ResetZeroesAndResizesReusingStorage) {
  DramModel dram(64);
  dram.Write(10, 1234);
  dram.Allocate(32);
  EXPECT_EQ(dram.allocated_words(), 32);

  dram.Reset(128);
  EXPECT_EQ(dram.size_words(), 128);
  EXPECT_EQ(dram.allocated_words(), 0);
  EXPECT_EQ(dram.words_written(), 0);
  EXPECT_EQ(dram.Read(10), 0) << "Reset must zero previous contents";

  dram.Reset(16);
  EXPECT_EQ(dram.size_words(), 16);
  EXPECT_THROW(dram.Read(16), Error);
  EXPECT_THROW(dram.Reset(0), Error);
}

}  // namespace
}  // namespace hdnn
