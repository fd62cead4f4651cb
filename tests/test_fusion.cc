// Fused segments: the keep-resident compiler pass (compiler/fusion.h), the
// kr opcodes, the simulator's resident store and the DSE's fusion decision.
//
// Coverage:
//   * kr encodings round-trip and reuse the plain payload layouts bit for
//     bit (only the opcode nibble differs) — the unfused-invariance anchor;
//   * segment-planner legality: branching tensors, residual sources, model
//     outputs and oversized working sets all refuse to fuse, and the
//     overlapping-residency budget rejects oversubscribed chains;
//   * fused programs simulate bit-exactly against the golden reference and
//     move strictly fewer DRAM words than the unfused compile (fuzzed over
//     2-4 layer SPAT+WINO chains and residual interiors);
//   * the DSE adopts fusion for a ResNet-18-shaped residual-block interior
//     and FC tail, with the >= 30% DRAM-word saving pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "compiler/compiler.h"
#include "compiler/fusion.h"
#include "compiler/stream_check.h"
#include "dse/search.h"
#include "isa/codec.h"
#include "nn/builders.h"
#include "runtime/engine.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::RunEndToEnd;
using ::hdnn::testing::SetField;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

std::int64_t DramWords(const RunReport& r) {
  return r.stats.dram_words_read + r.stats.dram_words_written;
}

/// All-Spatial/IS mapping with the given fuse_output flags.
std::vector<LayerMapping> SpatialMapping(const Model& m,
                                         const std::vector<bool>& fused) {
  std::vector<LayerMapping> mapping(static_cast<std::size_t>(m.num_layers()));
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    mapping[i].fuse_output = fused[i];
  }
  return mapping;
}

int CountKrOpcodes(const CompiledModel& cm) {
  int kr = 0;
  for (const Instruction& instr : cm.program) {
    const Opcode op = PeekOpcode(instr);
    kr += op == Opcode::kSaveKr || op == Opcode::kSaveResKr ||
          op == Opcode::kLoadInpKr;
  }
  return kr;
}

// --- ISA ------------------------------------------------------------------

TEST(FusionIsaTest, LoadInpKrRoundTripsAndKeepsPayloadBits) {
  LoadFields f;
  f.op = Opcode::kLoadInp;
  f.dept = kEmitData | kWaitCredit;
  f.buff_id = 1;
  f.buff_base = 77;
  f.dram_base = 123456;
  f.rows = 9;
  f.cols = 13;
  f.chan_vecs = 3;
  f.aux = 14;
  f.pitch = 17;
  f.pad_t = 1;
  f.pad_l = 2;
  f.wino = true;
  f.wino_offset = 5;

  const Instruction plain = Encode(f);
  ASSERT_EQ(PeekOpcode(plain), Opcode::kLoadInp);
  f.keep_resident = true;
  const Instruction kr = Encode(f);
  ASSERT_EQ(PeekOpcode(kr), Opcode::kLoadInpKr);
  // Full round-trip: the decoded fields keep the architectural kLoadInp op
  // with the residency carried in the flag.
  const auto decoded = std::get<LoadFields>(Decode(kr));
  EXPECT_EQ(decoded, f);
  EXPECT_EQ(decoded.op, Opcode::kLoadInp);
  // The 124 bits below the opcode are reused verbatim.
  Word128 a = plain, b = kr;
  SetField(a, 124, 4, 0);
  SetField(b, 124, 4, 0);
  EXPECT_EQ(a, b);
}

TEST(FusionIsaTest, SaveKrVariantsRoundTripAndKeepPayloadBits) {
  SaveFields f;
  f.dept = kWaitData0 | kEmitCredit0;
  f.buff_id = 1;
  f.buff_base = 5;
  f.dram_base = 4096;
  f.rows = 4;
  f.cols = 12;
  f.oc_vecs = 3;
  f.layout = SaveLayout::kSpatToWino;
  f.pool = 2;
  f.out_h = 6;
  f.out_w = 12;
  f.oc_pitch = 16;

  const Instruction plain = Encode(f);
  ASSERT_EQ(PeekOpcode(plain), Opcode::kSave);
  f.keep_resident = true;
  const Instruction kr = Encode(f);
  ASSERT_EQ(PeekOpcode(kr), Opcode::kSaveKr);
  EXPECT_EQ(std::get<SaveFields>(Decode(kr)), f);
  Word128 a = plain, b = kr;
  SetField(a, 124, 4, 0);
  SetField(b, 124, 4, 0);
  EXPECT_EQ(a, b);

  // Residual variant: SAVE_RES vs SAVE_RES_KR.
  SaveFields r = f;
  r.keep_resident = false;
  r.pool = 1;  // residual layers cannot pool
  r.res_add = true;
  r.relu = true;
  r.res_dram_base = 2048;
  const Instruction res_plain = Encode(r);
  ASSERT_EQ(PeekOpcode(res_plain), Opcode::kSaveRes);
  r.keep_resident = true;
  const Instruction res_kr = Encode(r);
  ASSERT_EQ(PeekOpcode(res_kr), Opcode::kSaveResKr);
  EXPECT_EQ(std::get<SaveFields>(Decode(res_kr)), r);
  Word128 c = res_plain, d = res_kr;
  SetField(c, 124, 4, 0);
  SetField(d, 124, 4, 0);
  EXPECT_EQ(c, d);
}

// --- Planner legality -----------------------------------------------------

TEST(FusionPlanTest, ResidualBlockFusesOnlyTheInterior) {
  const AccelConfig cfg = TestConfig(4);
  const Model m = BuildTinyResidualBlock();
  // stem branches into bodya and proj: two readers.
  EXPECT_FALSE(FusableOutput(m, m.IndexOf("stem"), cfg));
  // proj is bodyb's residual source: SAVE_RES streams skips from DRAM.
  EXPECT_FALSE(FusableOutput(m, m.IndexOf("proj"), cfg));
  // bodya -> bodyb is the block interior: one reader, fits the budget.
  EXPECT_TRUE(FusableOutput(m, m.IndexOf("bodya"), cfg));
  // bodyb is the model output.
  EXPECT_FALSE(FusableOutput(m, m.IndexOf("bodyb"), cfg));

  const std::vector<bool> plan = PlanFusion(m, cfg);
  for (int i = 0; i < m.num_layers(); ++i) {
    EXPECT_EQ(plan[static_cast<std::size_t>(i)], i == m.IndexOf("bodya"))
        << m.layer(i).name;
  }
}

TEST(FusionPlanTest, OversizedWorkingSetRefusesToFuse) {
  const AccelConfig cfg = TestConfig(4);  // budget: 8192 * 4 = 32768 words
  ASSERT_EQ(ResidencyBudgetWords(cfg), 32768);
  // 32 x 36 x 36 = 41472 words: legal edge-wise in every other respect, but
  // the image exceeds the residency budget.
  Model m("big", FmapShape{32, 36, 36});
  ConvLayer a;
  a.name = "a";
  a.in_channels = a.out_channels = 32;
  m.Append(a);
  ConvLayer b = a;
  b.name = "b";
  m.Append(b);
  EXPECT_GT(TensorResidencyWords(m, 0, cfg), ResidencyBudgetWords(cfg));
  EXPECT_FALSE(FusableOutput(m, 0, cfg));
  const std::vector<bool> plan = PlanFusion(m, cfg);
  EXPECT_EQ(plan, std::vector<bool>({false, false}));

  // Forcing the flag anyway is rejected by the validator and the compiler.
  std::vector<LayerMapping> forced(2);
  forced[0].fuse_output = true;
  EXPECT_THROW(ValidateFusionFlags(m, forced, cfg), Error);
  EXPECT_THROW(Compiler(cfg, TestSpec()).Compile(m, forced), Error);

  // The model output can never stay resident either.
  std::vector<LayerMapping> tail(2);
  tail[1].fuse_output = true;
  EXPECT_THROW(ValidateFusionFlags(m, tail, cfg), Error);
}

TEST(FusionPlanTest, OverlappingResidentsMustShareTheBudget) {
  const AccelConfig cfg = TestConfig(4);
  // Each tensor is 20 x 32 x 32 = 20480 words: fine alone, but two adjacent
  // resident hand-offs overlap at the middle layer (one being read while the
  // next is written) and together exceed the 32768-word budget.
  Model m("pair", FmapShape{20, 32, 32});
  for (const char* name : {"a", "b", "c"}) {
    ConvLayer l;
    l.name = name;
    l.in_channels = l.out_channels = 20;
    m.Append(l);
  }
  EXPECT_TRUE(FusableOutput(m, 0, cfg));
  EXPECT_TRUE(FusableOutput(m, 1, cfg));
  const std::vector<bool> plan = PlanFusion(m, cfg);
  EXPECT_EQ(plan, std::vector<bool>({true, false, false}));

  std::vector<LayerMapping> both(3);
  both[0].fuse_output = both[1].fuse_output = true;
  EXPECT_THROW(ValidateFusionFlags(m, both, cfg), Error);
}

// --- End-to-end -----------------------------------------------------------

TEST(FusionE2ETest, FusedChainBitExactWithFewerDramWords) {
  Model m("chain", FmapShape{8, 20, 20});
  for (const char* name : {"conv1", "conv2"}) {
    ConvLayer l;
    l.name = name;
    l.in_channels = l.out_channels = 8;
    l.relu = true;
    m.Append(l);
  }
  const AccelConfig cfg = TestConfig(4);
  const std::vector<bool> plan = PlanFusion(m, cfg);
  ASSERT_EQ(plan, std::vector<bool>({true, false}));

  auto unfused = RunEndToEnd(m, cfg, TestSpec(),
                             SpatialMapping(m, {false, false}));
  auto fused = RunEndToEnd(m, cfg, TestSpec(), SpatialMapping(m, plan));
  EXPECT_EQ(CountKrOpcodes(unfused.compiled), 0);
  EXPECT_GT(CountKrOpcodes(fused.compiled), 0);
  EXPECT_TRUE(CheckInstructionStream(fused.compiled).ok());
  EXPECT_EQ(fused.sim_out, fused.golden_out);
  EXPECT_EQ(fused.sim_out, unfused.sim_out);
  EXPECT_LT(DramWords(fused.report), DramWords(unfused.report));
}

TEST(FusionE2ETest, ResidualInteriorFusesBitExact) {
  const Model m = BuildTinyResidualBlock();
  const AccelConfig cfg = TestConfig(4);
  const std::vector<bool> plan = PlanFusion(m, cfg);
  ASSERT_TRUE(plan[static_cast<std::size_t>(m.IndexOf("bodya"))]);

  auto unfused = RunEndToEnd(
      m, cfg, TestSpec(),
      SpatialMapping(m, std::vector<bool>(
                            static_cast<std::size_t>(m.num_layers()), false)));
  auto fused = RunEndToEnd(m, cfg, TestSpec(), SpatialMapping(m, plan));
  EXPECT_TRUE(CheckInstructionStream(fused.compiled).ok());
  EXPECT_EQ(fused.sim_out, fused.golden_out);
  EXPECT_EQ(fused.sim_out, unfused.sim_out);
  EXPECT_LT(DramWords(fused.report), DramWords(unfused.report));
}

// --- Fuzz -----------------------------------------------------------------

class FusionFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Random 2-4 layer fusable chains (SPAT+WINO mixes, optionally a residual
// interior): the fused compile must be bit-exact against golden AND against
// the unfused compile, and must move strictly fewer DRAM words.
TEST_P(FusionFuzzTest, FusableChainsBitExactAndSaveDram) {
  Prng prng(GetParam() * 6151);
  for (int iter = 0; iter < 3; ++iter) {
    const int layers = static_cast<int>(prng.NextInt(2, 4));
    const int c = 4 * static_cast<int>(prng.NextInt(1, 4));  // 4..16
    const int hw = static_cast<int>(prng.NextInt(10, 24));
    const bool residual = layers == 4 && prng.NextInt(0, 1) != 0;

    Model m("fuzz_chain", FmapShape{c, hw, hw});
    std::vector<LayerMapping> mapping;
    auto append_conv = [&](const std::string& name, const std::string& from,
                           const std::string& add) {
      ConvLayer l;
      l.name = name;
      l.in_channels = l.out_channels = c;
      l.relu = prng.NextInt(0, 1) != 0;
      l.from = from;
      l.add = add;
      m.Append(l);
      const bool wino = add.empty() && prng.NextInt(0, 1) != 0;
      mapping.push_back(LayerMapping{
          wino ? ConvMode::kWinograd : ConvMode::kSpatial,
          Dataflow::kInputStationary});
    };
    if (residual) {
      // stem branches into the block body and a 1x1 projection skip; only
      // the bodya -> bodyb interior edge is fusable.
      append_conv("stem", "", "");
      append_conv("bodya", "stem", "");
      ConvLayer proj;
      proj.name = "proj";
      proj.in_channels = proj.out_channels = c;
      proj.kernel_h = proj.kernel_w = 1;
      proj.pad = 0;
      proj.from = "stem";
      m.Append(proj);
      mapping.push_back(
          LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
      append_conv("bodyb", "bodya", "proj");
    } else {
      for (int i = 0; i < layers; ++i) {
        append_conv("conv" + std::to_string(i), "", "");
      }
    }

    const AccelConfig cfg = TestConfig(4);
    const std::vector<bool> plan = PlanFusion(m, cfg);
    int planned = 0;
    for (const bool f : plan) planned += f;
    ASSERT_GT(planned, 0) << "generator produced an unfusable chain";

    std::vector<LayerMapping> fused_mapping = mapping;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      fused_mapping[i].fuse_output = plan[i];
    }

    SCOPED_TRACE(::testing::Message()
                 << "seed=" << GetParam() << " iter=" << iter << " layers="
                 << layers << " c=" << c << " hw=" << hw
                 << " residual=" << residual);
    const std::uint64_t data_seed = GetParam() * 613 + iter;
    auto unfused = RunEndToEnd(m, cfg, TestSpec(), mapping, data_seed);
    auto fused = RunEndToEnd(m, cfg, TestSpec(), fused_mapping, data_seed);
    EXPECT_TRUE(CheckInstructionStream(fused.compiled).ok());
    EXPECT_EQ(fused.sim_out, fused.golden_out);
    EXPECT_EQ(fused.sim_out, unfused.sim_out);
    EXPECT_LT(DramWords(fused.report), DramWords(unfused.report));
  }
}

// Oversized working sets must refuse to fuse outright.
TEST_P(FusionFuzzTest, OversizedChainsRefuseToFuse) {
  Prng prng(GetParam() * 2741);
  const AccelConfig cfg = TestConfig(4);
  for (int iter = 0; iter < 2; ++iter) {
    const int c = 4 * static_cast<int>(prng.NextInt(9, 16));  // 36..64
    const int hw = static_cast<int>(prng.NextInt(32, 40));
    if (static_cast<std::int64_t>(c) * hw * hw <= ResidencyBudgetWords(cfg)) {
      continue;  // not oversized at this draw; other draws cover it
    }
    Model m("fuzz_big", FmapShape{c, hw, hw});
    for (const char* name : {"a", "b"}) {
      ConvLayer l;
      l.name = name;
      l.in_channels = l.out_channels = c;
      m.Append(l);
    }
    SCOPED_TRACE(::testing::Message() << "seed=" << GetParam() << " c=" << c
                                      << " hw=" << hw);
    EXPECT_FALSE(FusableOutput(m, 0, cfg));
    EXPECT_EQ(PlanFusion(m, cfg), std::vector<bool>({false, false}));
    std::vector<LayerMapping> forced(2);
    forced[0].fuse_output = true;
    EXPECT_THROW(ValidateFusionFlags(m, forced, cfg), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- DSE ------------------------------------------------------------------

/// A ResNet-18-shaped tail at test scale: one residual basic block (stem
/// branching into the body pair and a 1x1 projection skip), a short
/// straight-line conv trunk, a downsampling head and the FC classifier.
/// Feature-map traffic dominates weights, like the late stages of the real
/// network: each fused edge elides a full 4x48x48 tensor round-trip.
Model BuildResNetTail() {
  Model m("resnet_tail", FmapShape{4, 48, 48});
  ConvLayer stem;
  stem.name = "stem";
  stem.in_channels = stem.out_channels = 4;
  stem.relu = true;
  m.Append(stem);
  ConvLayer bodya = stem;
  bodya.name = "bodya";
  bodya.from = "stem";
  m.Append(bodya);
  ConvLayer proj;
  proj.name = "proj";
  proj.in_channels = proj.out_channels = 4;
  proj.kernel_h = proj.kernel_w = 1;
  proj.pad = 0;
  proj.from = "stem";
  m.Append(proj);
  ConvLayer bodyb = stem;
  bodyb.name = "bodyb";
  bodyb.from = "bodya";
  bodyb.add = "proj";
  m.Append(bodyb);
  ConvLayer mid0 = stem;
  mid0.name = "mid0";
  mid0.from = "bodyb";
  m.Append(mid0);
  ConvLayer mid1 = stem;
  mid1.name = "mid1";
  mid1.from = "mid0";
  m.Append(mid1);
  ConvLayer head;
  head.name = "head";
  head.in_channels = head.out_channels = 4;
  head.stride = 2;
  head.relu = true;
  head.pool = 2;  // 48 -> 24 -> 12: FC reads 4*12*12 = 576 features
  head.from = "mid1";
  m.Append(head);
  m.AppendFullyConnected("fc", 10, /*relu=*/false);
  return m;
}

TEST(FusionDseTest, DseAdoptsFusionForResidualInteriorAndFcTail) {
  const Model m = BuildResNetTail();
  const DseEngine dse(TestSpec());
  const AccelConfig cfg = TestConfig(4);

  double fused_cycles = 0, unfused_cycles = 0;
  const auto fused_mapping =
      dse.BestMapping(m, cfg, DseOptions{}, &fused_cycles);
  DseOptions off;
  off.fuse_segments = false;
  const auto plain_mapping = dse.BestMapping(m, cfg, off, &unfused_cycles);
  EXPECT_LT(fused_cycles, unfused_cycles);
  for (const LayerMapping& lm : plain_mapping) {
    EXPECT_FALSE(lm.fuse_output);
  }
  // The residual-block interior and the FC tail are both adopted.
  EXPECT_TRUE(
      fused_mapping[static_cast<std::size_t>(m.IndexOf("bodya"))].fuse_output);
  EXPECT_TRUE(
      fused_mapping[static_cast<std::size_t>(m.IndexOf("head"))].fuse_output);

  const std::uint64_t seed = 11;
  auto fused = RunEndToEnd(m, cfg, TestSpec(), fused_mapping, seed);
  auto unfused = RunEndToEnd(m, cfg, TestSpec(), plain_mapping, seed);
  EXPECT_TRUE(CheckInstructionStream(fused.compiled).ok());
  EXPECT_EQ(fused.sim_out, fused.golden_out);
  EXPECT_EQ(unfused.sim_out, unfused.golden_out);
  EXPECT_EQ(fused.sim_out, unfused.sim_out);
  // The pinned regression: fusing the block interior + FC tail removes at
  // least 30% of the DRAM traffic of this fmap-dominated segment.
  EXPECT_LE(static_cast<double>(DramWords(fused.report)),
            0.7 * static_cast<double>(DramWords(unfused.report)));
}

TEST(FusionDseTest, ResNet18PlansLateStageInteriorsAndFcTail) {
  const Model m = BuildResNet18();
  AccelConfig cfg = TestConfig(4);
  cfg.input_buffer_vectors = 16384;  // budget 65536 words: 7x7x512 tensors
                                     // and the flattened FC input fit
  const std::vector<bool> plan = PlanFusion(m, cfg);
  auto planned = [&](const char* name) {
    return plan[static_cast<std::size_t>(m.IndexOf(name))];
  };
  EXPECT_TRUE(planned("conv5_2a"));   // last residual-block interior
  EXPECT_TRUE(planned("conv5_2b"));   // feeds the FC tail
  EXPECT_FALSE(planned("conv3_1a"));  // 28x28x128 exceeds the budget
  EXPECT_FALSE(planned("fc"));        // model output

  const DseEngine dse(TestSpec());
  double on_cycles = 0, off_cycles = 0;
  const auto mapping = dse.BestMapping(m, cfg, DseOptions{}, &on_cycles);
  DseOptions off;
  off.fuse_segments = false;
  dse.BestMapping(m, cfg, off, &off_cycles);
  EXPECT_LT(on_cycles, off_cycles);
  EXPECT_TRUE(
      mapping[static_cast<std::size_t>(m.IndexOf("conv5_2a"))].fuse_output);
  EXPECT_TRUE(
      mapping[static_cast<std::size_t>(m.IndexOf("conv5_2b"))].fuse_output);
}

// --- Engine cache ---------------------------------------------------------

TEST(FusionEngineTest, StructuralHashSeparatesFusionDecisions) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> a(static_cast<std::size_t>(m.num_layers()));
  std::vector<LayerMapping> b = a;
  b[0].fuse_output = true;
  EXPECT_NE(ModelStructuralHash(m, a), ModelStructuralHash(m, b));
}

}  // namespace
}  // namespace hdnn
