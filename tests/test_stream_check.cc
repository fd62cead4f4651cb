// The compiler QA pass: every program the compiler emits must be clean, and
// deliberately corrupted programs must be flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "compiler/stream_check.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

CompiledModel CompileTiny(ConvMode mode, Dataflow flow, int pt = 4) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()), LayerMapping{mode, flow});
  mapping.back() = {ConvMode::kSpatial, Dataflow::kWeightStationary};  // FC
  return Compiler(TestConfig(pt), TestSpec()).Compile(m, mapping);
}

class CompiledStreamTest
    : public ::testing::TestWithParam<std::tuple<ConvMode, Dataflow, int>> {};

TEST_P(CompiledStreamTest, CompilerOutputIsAlwaysClean) {
  const auto& [mode, flow, pt] = GetParam();
  const CompiledModel cm = CompileTiny(mode, flow, pt);
  const StreamCheckReport report = CheckInstructionStream(cm);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.comps, 0);
  EXPECT_EQ(report.loads_wgt, report.loads_bias);  // bias rides every block
  EXPECT_NO_THROW(RequireValidStream(cm));
}

INSTANTIATE_TEST_SUITE_P(
    ModesFlows, CompiledStreamTest,
    ::testing::Combine(::testing::Values(ConvMode::kSpatial,
                                         ConvMode::kWinograd),
                       ::testing::Values(Dataflow::kInputStationary,
                                         Dataflow::kWeightStationary),
                       ::testing::Values(4, 6)),
    [](const auto& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             ToString(std::get<1>(info.param)) + "_pt" +
             std::to_string(std::get<2>(info.param));
    });

TEST(StreamCheckTest, BigModelsAreClean) {
  for (const Model& m : {BuildVgg16ConvOnly(), BuildAlexNetStyle()}) {
    const FpgaSpec spec = Vu9pSpec();
    const DseEngine dse(spec);
    const DseResult r = dse.Explore(m);
    const CompiledModel cm = Compiler(r.config, spec).Compile(m, r.mapping);
    const auto report = CheckInstructionStream(cm);
    EXPECT_TRUE(report.ok()) << m.name() << ": " << report.violations.front();
  }
}

TEST(StreamCheckTest, DetectsDroppedCredit) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  // Strip the input-credit release from the last COMP that has one.
  for (auto it = cm.program.rbegin(); it != cm.program.rend(); ++it) {
    if (PeekOpcode(*it) != Opcode::kComp) continue;
    auto f = std::get<CompFields>(Decode(*it));
    if (!(f.dept & kEmitCredit0)) continue;
    f.dept &= static_cast<std::uint8_t>(~kEmitCredit0);
    *it = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

TEST(StreamCheckTest, DetectsDoubleEmit) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kLoadInp) continue;
    auto f = std::get<LoadFields>(Decode(instr));
    f.dept &= static_cast<std::uint8_t>(~kWaitCredit);  // never take credit
    instr = Encode(f);
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());  // credits over-restored at the end
}

TEST(StreamCheckTest, DetectsWrongSaveHalf) {
  CompiledModel cm = CompileTiny(ConvMode::kWinograd,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kSave) continue;
    auto f = std::get<SaveFields>(Decode(instr));
    f.buff_id ^= 1;  // flip the ping-pong half
    instr = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

TEST(StreamCheckTest, DetectsDramOverrun) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kSave) continue;
    auto f = std::get<SaveFields>(Decode(instr));
    f.dram_base = static_cast<std::uint32_t>(cm.total_dram_words + 100);
    instr = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

// The weight/bias images below fmap_base are read-only to the device: a
// SAVE (plain, keep-resident or residual) aimed there is a located
// violation.
TEST(StreamCheckTest, DetectsSaveIntoWeightImage) {
  for (const bool keep_resident : {false, true}) {
    for (const bool res_add : {false, true}) {
      CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                     Dataflow::kInputStationary);
      ASSERT_GT(cm.fmap_base, 0);
      int index = -1;
      for (std::size_t i = 0; i < cm.program.size(); ++i) {
        if (PeekOpcode(cm.program[i]) != Opcode::kSave) continue;
        auto f = std::get<SaveFields>(Decode(cm.program[i]));
        f.dram_base = static_cast<std::uint32_t>(cm.fmap_base - 1);
        f.keep_resident = keep_resident;
        if (res_add) {
          f.res_add = true;
          f.pool = 1;
          f.res_dram_base = static_cast<std::uint32_t>(cm.fmap_base);
        }
        cm.program[i] = Encode(f);
        index = static_cast<int>(i);
        break;
      }
      ASSERT_GE(index, 0);
      const auto report = CheckInstructionStream(cm);
      const std::string expected = "instr " + std::to_string(index) +
                                   ": SAVE writes the read-only weight image";
      EXPECT_TRUE(std::any_of(report.violations.begin(),
                              report.violations.end(),
                              [&](const std::string& v) {
                                return v.rfind(expected, 0) == 0;
                              }))
          << "keep_resident " << keep_resident << " res_add " << res_add;
      EXPECT_THROW(RequireValidStream(cm), InternalError);
    }
  }
}

// With no weight image (fmap_base == 0) every SAVE address is an fmap
// address; the read-only rule flags nothing.
TEST(StreamCheckTest, ZeroFmapBaseHasNoReadOnlyRegion) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  cm.fmap_base = 0;
  for (const std::string& v : CheckInstructionStream(cm).violations) {
    EXPECT_EQ(v.find("read-only weight image"), std::string::npos) << v;
  }
}

TEST(StreamCheckTest, DetectsMissingEnd) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  cm.program.pop_back();
  EXPECT_THROW(CheckInstructionStream(cm), InvalidArgument);
}

}  // namespace
}  // namespace hdnn
