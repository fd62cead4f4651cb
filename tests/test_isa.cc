#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/prng.h"
#include "compiler/compiler.h"
#include "dse/search.h"
#include "isa/assembler.h"
#include "isa/codec.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::SetField;

LoadFields SampleLoad(Prng& prng, Opcode op) {
  LoadFields f;
  f.op = op;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 14) - 1));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  f.rows = static_cast<std::uint16_t>(prng.NextInt(0, 255));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.chan_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.aux = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.pitch = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.pad_t = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_b = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_l = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_r = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.wino = prng.NextInt(0, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(prng.NextInt(0, 7));
  return f;
}

CompFields SampleComp(Prng& prng) {
  CompFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.inp_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.wgt_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.out_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.inp_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.out_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.wgt_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.iw_num = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.ow_num = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.oh_num = static_cast<std::uint8_t>(prng.NextInt(0, 7));
  f.ic_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.stride = static_cast<std::uint8_t>(prng.NextInt(1, 4));
  f.relu = prng.NextInt(0, 1) != 0;
  f.quan = static_cast<std::uint8_t>(prng.NextInt(0, 31));
  f.wino = prng.NextInt(0, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.kh = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.kw = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.base_row = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.base_col = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.accum_clear = prng.NextInt(0, 1) != 0;
  f.accum_emit = prng.NextInt(0, 1) != 0;
  return f;
}

SaveFields SampleSave(Prng& prng) {
  SaveFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1u << 31) - 1));
  f.rows = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.layout = static_cast<SaveLayout>(prng.NextInt(0, 3));
  f.pool = static_cast<std::uint8_t>(prng.NextInt(1, 4));
  f.out_h = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.out_w = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_pitch = static_cast<std::uint16_t>(prng.NextInt(0, 8191));
  return f;
}

/// SAVE_RES narrows the geometry fields to fit the residual address; sample
/// within its tighter limits (see the SAVE rows in codec.cc).
SaveFields SampleSaveRes(Prng& prng) {
  SaveFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 15));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  f.rows = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 511));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 127));
  f.layout = static_cast<SaveLayout>(prng.NextInt(0, 3));
  f.pool = 1;  // residual saves cannot pool
  f.out_h = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.out_w = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.oc_pitch = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.res_add = true;
  f.res_wino = prng.NextInt(0, 1) != 0;
  f.relu = prng.NextInt(0, 1) != 0;
  f.res_dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  return f;
}

class RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripTest, LoadInstructionsRoundTrip) {
  Prng prng(GetParam());
  for (int i = 0; i < 100; ++i) {
    for (Opcode op :
         {Opcode::kLoadInp, Opcode::kLoadWgt, Opcode::kLoadBias}) {
      const LoadFields f = SampleLoad(prng, op);
      const InstrFields decoded = Decode(Encode(InstrFields{f}));
      ASSERT_TRUE(std::holds_alternative<LoadFields>(decoded));
      EXPECT_EQ(std::get<LoadFields>(decoded), f);
    }
  }
}

TEST_P(RoundTripTest, CompInstructionsRoundTrip) {
  Prng prng(GetParam() + 100);
  for (int i = 0; i < 200; ++i) {
    const CompFields f = SampleComp(prng);
    const InstrFields decoded = Decode(Encode(InstrFields{f}));
    ASSERT_TRUE(std::holds_alternative<CompFields>(decoded));
    EXPECT_EQ(std::get<CompFields>(decoded), f);
  }
}

TEST_P(RoundTripTest, SaveInstructionsRoundTrip) {
  Prng prng(GetParam() + 200);
  for (int i = 0; i < 200; ++i) {
    const SaveFields f = SampleSave(prng);
    const InstrFields decoded = Decode(Encode(InstrFields{f}));
    ASSERT_TRUE(std::holds_alternative<SaveFields>(decoded));
    EXPECT_EQ(std::get<SaveFields>(decoded), f);
  }
}

TEST_P(RoundTripTest, SaveResInstructionsRoundTrip) {
  Prng prng(GetParam() + 400);
  for (int i = 0; i < 200; ++i) {
    const SaveFields f = SampleSaveRes(prng);
    const Instruction encoded = Encode(InstrFields{f});
    EXPECT_EQ(PeekOpcode(encoded), Opcode::kSaveRes);
    const InstrFields decoded = Decode(encoded);
    ASSERT_TRUE(std::holds_alternative<SaveFields>(decoded));
    EXPECT_EQ(std::get<SaveFields>(decoded), f);
  }
}

TEST(SaveResEncodingTest, OversizedFieldsRejected) {
  Prng prng(9);
  SaveFields base = SampleSaveRes(prng);
  SaveFields wide_pitch = base;
  wide_pitch.oc_pitch = 1024;  // > 10 bits
  EXPECT_THROW(Encode(InstrFields{wide_pitch}), InvalidArgument);
  SaveFields pooled = base;
  pooled.pool = 2;
  EXPECT_THROW(Encode(InstrFields{pooled}), InvalidArgument);
  // Plain SAVE cannot carry the deferred ReLU (COMP fuses it there).
  SaveFields plain_relu = base;
  plain_relu.res_add = false;
  plain_relu.relu = true;
  EXPECT_THROW(Encode(InstrFields{plain_relu}), InvalidArgument);
}

TEST_P(RoundTripTest, AssemblerTextRoundTrip) {
  Prng prng(GetParam() + 300);
  std::vector<Instruction> program;
  for (int i = 0; i < 20; ++i) {
    program.push_back(Encode(InstrFields{SampleLoad(prng, Opcode::kLoadInp)}));
    program.push_back(Encode(InstrFields{SampleLoad(prng, Opcode::kLoadWgt)}));
    program.push_back(Encode(InstrFields{SampleComp(prng)}));
    program.push_back(Encode(InstrFields{SampleSave(prng)}));
    program.push_back(Encode(InstrFields{SampleSaveRes(prng)}));
  }
  program.push_back(Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}}));
  const std::string text = DisassembleProgram(program);
  const std::vector<Instruction> back = AssembleProgram(text);
  ASSERT_EQ(back.size(), program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    EXPECT_EQ(back[i], program[i]) << "instruction " << i << ":\n"
                                   << Disassemble(program[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(CodecTest, FieldOverflowThrows) {
  LoadFields f;
  f.op = Opcode::kLoadInp;
  f.chan_vecs = 5000;  // 12-bit field
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
}

TEST(CodecTest, CompStrideRangeEnforced) {
  CompFields f;
  f.stride = 5;
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
  f.stride = 0;
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
}

TEST(CodecTest, OpcodeNames) {
  EXPECT_STREQ(OpcodeName(Opcode::kLoadInp), "LOAD_INP");
  EXPECT_STREQ(OpcodeName(Opcode::kComp), "COMP");
  EXPECT_STREQ(OpcodeName(Opcode::kEnd), "END");
  EXPECT_STREQ(SaveLayoutName(SaveLayout::kWinoToSpat), "WINO-to-SPAT");
}

TEST(CodecTest, PeekOpcodeRejectsInvalid) {
  Word128 w;
  SetField(w, 124, 4, 13);  // not a defined opcode (11-15 are unassigned)
  EXPECT_THROW(PeekOpcode(w), InvalidArgument);
}

TEST(ValidateProgramTest, AcceptsEndTerminated) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kNop, 0}}),
                             Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}})};
  EXPECT_NO_THROW(ValidateProgram(p));
}

TEST(ValidateProgramTest, RejectsMissingEnd) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kNop, 0}})};
  EXPECT_THROW(ValidateProgram(p), InvalidArgument);
}

TEST(ValidateProgramTest, RejectsTrailingAfterEnd) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}}),
                             Encode(InstrFields{CtrlFields{Opcode::kNop, 0}})};
  EXPECT_THROW(ValidateProgram(p), InvalidArgument);
}

TEST(ValidateProgramTest, RejectsEmpty) {
  EXPECT_THROW(ValidateProgram({}), InvalidArgument);
}

TEST(AssemblerTest, ParsesMinimalProgram) {
  const std::string text =
      "# a comment\n"
      "LOAD_INP dept=0xa buff=1 base=0 dram=64 rows=4 cols=8 cv=2 aux=8 "
      "pitch=8 pad=1,1,1,1 wino=1\n"
      "END\n";
  const auto program = AssembleProgram(text);
  ASSERT_EQ(program.size(), 2u);
  const auto f = std::get<LoadFields>(Decode(program[0]));
  EXPECT_EQ(f.dept, 0xa);
  EXPECT_EQ(f.rows, 4);
  EXPECT_TRUE(f.wino);
  EXPECT_EQ(f.pad_l, 1);
}

TEST(AssemblerTest, RejectsBadMnemonic) {
  EXPECT_THROW(AssembleProgram("FROBNICATE x=1\n"), ParseError);
}

TEST(AssemblerTest, RejectsMalformedKeyValue) {
  EXPECT_THROW(AssembleProgram("COMP banana\n"), ParseError);
  EXPECT_THROW(AssembleProgram("COMP ow=abc\n"), ParseError);
}

TEST(AssemblerTest, ErrorsIncludeLineNumbers) {
  try {
    AssembleProgram("NOP\nBADOP\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}


// ---------------------------------------------------------------------------
// Golden pin: the encoded words and the disassembly text of 16 DSE-compiled
// programs. A moved digest means the instruction layout (or the text format)
// changed; fix the layout, never re-pin.

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t WordsDigest(const std::vector<Instruction>& program) {
  std::uint64_t h = kFnvBasis;
  for (const Instruction& w : program) {
    h = Fnv1a(h, &w.lo, sizeof w.lo);
    h = Fnv1a(h, &w.hi, sizeof w.hi);
  }
  return h;
}

std::uint64_t TextDigest(const std::string& text) {
  return Fnv1a(kFnvBasis, text.data(), text.size());
}

struct IsaGoldenCase {
  const char* model;     ///< "tiny_cnn", "vgg16_conv", "vgg16" or "resnet18"
  const char* platform;  ///< "VU9P" or "PYNQ-Z1"
  bool fused;
  std::uint64_t words_digest;
  std::uint64_t text_digest;
};

constexpr IsaGoldenCase kIsaGolden[] = {
    {"tiny_cnn", "VU9P", true,
     0x343991dfb806cb89ull, 0x3835462c51ce6d19ull},
    {"tiny_cnn", "VU9P", false,
     0xb4c877fd7fb64a19ull, 0xa9fcbfa246949bfbull},
    {"tiny_cnn", "PYNQ-Z1", true,
     0x1bfc959b8eabb001ull, 0xda131b44cf5a4032ull},
    {"tiny_cnn", "PYNQ-Z1", false,
     0x39c2480aa6489611ull, 0x734d2bac28672034ull},
    {"vgg16_conv", "VU9P", true,
     0xd1ddee4465797bbaull, 0xbf0f90c267a34d5full},
    {"vgg16_conv", "VU9P", false,
     0xd1ddee4465797bbaull, 0xbf0f90c267a34d5full},
    {"vgg16_conv", "PYNQ-Z1", true,
     0x19f5f5664282df39ull, 0x3034e776b33ef684ull},
    {"vgg16_conv", "PYNQ-Z1", false,
     0x19f5f5664282df39ull, 0x3034e776b33ef684ull},
    {"vgg16", "VU9P", true,
     0x42ded78a7f85081full, 0x185ffb6fe75e0badull},
    {"vgg16", "VU9P", false,
     0x9ca7c5c6c4939dbfull, 0x7181e9a44d224e81ull},
    {"vgg16", "PYNQ-Z1", true,
     0x8f3129d502e46c80ull, 0x7088dc4c44344b7cull},
    {"vgg16", "PYNQ-Z1", false,
     0x48869e695db51b00ull, 0x790c6f7ef2c108aull},
    {"resnet18", "VU9P", true,
     0x49efa0fb64506e2full, 0x3c876b43df3d2e25ull},
    {"resnet18", "VU9P", false,
     0x3f68d8259a44c00full, 0xf3cb66890e229345ull},
    {"resnet18", "PYNQ-Z1", true,
     0x7eea2b95665191a1ull, 0x53efc10d4bc9fbdeull},
    {"resnet18", "PYNQ-Z1", false,
     0xdec62294c36fe861ull, 0xf6081349ee8515e4ull},
};

Model BuildIsaGoldenModel(const std::string& name) {
  if (name == "tiny_cnn") return BuildTinyCnn();
  if (name == "vgg16_conv") return BuildVgg16ConvOnly();
  if (name == "vgg16") return BuildVgg16();
  return BuildResNet18();
}

/// The program the design flow would run: DSE-chosen config and mapping,
/// then the compiler.
std::vector<Instruction> CompileGoldenProgram(const std::string& model_name,
                                              const std::string& platform,
                                              bool fused) {
  const Model model = BuildIsaGoldenModel(model_name);
  const FpgaSpec& spec = platform == "VU9P" ? Vu9pSpec() : PynqZ1Spec();
  DseOptions opts;
  opts.fuse_segments = fused;
  const DseResult best = DseEngine(spec).Explore(model, opts);
  return Compiler(best.config, spec).Compile(model, best.mapping).program;
}

TEST(IsaGoldenTest, CompiledProgramsMatchPinnedDigests) {
  for (const IsaGoldenCase& c : kIsaGolden) {
    const std::vector<Instruction> program =
        CompileGoldenProgram(c.model, c.platform, c.fused);
    const std::string text = DisassembleProgram(program);
    const std::string label = std::string(c.model) + " on " + c.platform +
                              (c.fused ? " (fused)" : " (unfused)");
    EXPECT_EQ(WordsDigest(program), c.words_digest)
        << label << ": words 0x" << std::hex << WordsDigest(program);
    EXPECT_EQ(TextDigest(text), c.text_digest)
        << label << ": text 0x" << std::hex << TextDigest(text);
    EXPECT_TRUE(AssembleProgram(text) == program) << label;
  }
}

/// One instruction's text split into the mnemonic and its key=value tokens.
struct TextLine {
  std::string mnemonic;
  std::vector<std::pair<std::string, std::vector<std::string>>> kv;

  explicit TextLine(const std::string& line) {
    std::istringstream in(line);
    in >> mnemonic;
    std::string token;
    while (in >> token) {
      const auto eq = token.find('=');
      std::vector<std::string> values;
      std::istringstream vs(token.substr(eq + 1));
      std::string piece;
      while (std::getline(vs, piece, ',')) values.push_back(piece);
      kv.emplace_back(token.substr(0, eq), values);
    }
  }

  std::string Render() const {
    std::string out = mnemonic;
    for (const auto& [key, values] : kv) {
      out += " " + key + "=";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? "," : "") + values[i];
      }
    }
    return out;
  }
};

/// Assembles `line` with value slot (k, i) replaced; false if rejected.
bool AssembleWithSlot(TextLine line, std::size_t k, std::size_t i,
                      std::uint64_t value, Instruction& out) {
  line.kv[k].second[i] = std::to_string(value);
  try {
    out = AssembleLine(line.Render());
    return true;
  } catch (const Error&) {
    return false;
  }
}

int PopCount(const Word128& w) {
  return __builtin_popcountll(w.lo) + __builtin_popcountll(w.hi);
}

// Each format's payload rows, probed through the assembler: the bits one
// value slot drives are the XOR of its minimum accepted encoding with the
// encoding of minimum + 2^k for every accepted k. No two slots may share a
// bit, and every slot lies in bits 0-115 (payload) or 116-117 (BUFF_ID).
TEST(IsaGoldenTest, RowsAreDisjointAndBelowTheHeader) {
  struct Format {
    const char* name;
    InstrFields fields;
    int used_bits;  ///< payload + BUFF_ID bits the format allocates
  };
  SaveFields save_res;
  save_res.res_add = true;
  const Format formats[] = {
      {"LOAD", LoadFields{}, 118},
      {"COMP", CompFields{}, 117},  // bit 0 is spare
      {"SAVE", SaveFields{}, 118},
      {"SAVE_RES", save_res, 118},
  };
  for (const Format& f : formats) {
    const TextLine line(Disassemble(Encode(f.fields)));
    Word128 used;
    for (std::size_t k = 0; k < line.kv.size(); ++k) {
      if (line.kv[k].first == "dept") continue;  // header, not payload
      for (std::size_t i = 0; i < line.kv[k].second.size(); ++i) {
        const std::string slot = std::string(f.name) + " " +
                                 line.kv[k].first + "[" + std::to_string(i) +
                                 "]";
        std::uint64_t lo = 0;
        Instruction base;
        while (!AssembleWithSlot(line, k, i, lo, base)) {
          ASSERT_LT(++lo, 16u) << slot << " accepts no small value";
        }
        Word128 bits;
        for (int b = 0; b < 40; ++b) {
          Instruction probe;
          if (!AssembleWithSlot(line, k, i, lo + (1ull << b), probe)) continue;
          bits.lo |= probe.lo ^ base.lo;
          bits.hi |= probe.hi ^ base.hi;
        }
        EXPECT_EQ(bits.lo & used.lo, 0u) << slot << " overlaps another row";
        EXPECT_EQ(bits.hi & used.hi, 0u) << slot << " overlaps another row";
        EXPECT_EQ(bits.hi >> 54, 0u) << slot << " reaches into the header";
        used.lo |= bits.lo;
        used.hi |= bits.hi;
      }
    }
    EXPECT_EQ(PopCount(used), f.used_bits) << f.name;
  }
}


/// `text` must be rejected with a ParseError naming line `line` and `key`.
void ExpectLocatedParseError(const std::string& text, int line,
                             const std::string& key) {
  try {
    AssembleProgram(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

TEST(AssemblerTest, RejectsOutOfRangeValuesWithLineAndKey) {
  ExpectLocatedParseError("NOP\nCOMP kh=256\n", 2, "kh");
  ExpectLocatedParseError("NOP\nSAVE layout=256\n", 2, "layout");
  ExpectLocatedParseError("NOP\nCOMP stride=257\n", 2, "stride");
  ExpectLocatedParseError("NOP\nLOAD_WGT pad=256,0,0,0\n", 2, "pad");
  ExpectLocatedParseError("COMP kh=16\n", 1, "kh");
  ExpectLocatedParseError("NOP\nNOP\nLOAD_INP dept=0x140\n", 3, "dept");
  ExpectLocatedParseError("COMP stride=0\n", 1, "stride");
  ExpectLocatedParseError("SAVE_RES pool=2\n", 1, "pool");
}

TEST(AssemblerTest, RejectsUnknownAndDuplicateKeys) {
  ExpectLocatedParseError("NOP\nCOMP khh=5\n", 2, "khh");
  ExpectLocatedParseError("COMP oh=1 oh=7\n", 1, "oh");
  ExpectLocatedParseError("SAVE relu=1\n", 1, "relu");  // SAVE_RES only
  ExpectLocatedParseError("END foo=1\n", 1, "foo");
}

TEST(AssemblerTest, RejectsNegativeAndSignedNumbers) {
  ExpectLocatedParseError("COMP kh=-1\n", 1, "kh");
  ExpectLocatedParseError("NOP\nLOAD_INP rows=-1\n", 2, "rows");
  ExpectLocatedParseError("LOAD_INP pad=0,-0,0,0\n", 1, "pad");
  ExpectLocatedParseError("COMP ow=+3\n", 1, "ow");
}

TEST(AssemblerTest, RejectsWrongValueCounts) {
  ExpectLocatedParseError("LOAD_INP pad=1,1,1\n", 1, "pad");
  ExpectLocatedParseError("LOAD_INP pad=1,1,1,1,1\n", 1, "pad");
  ExpectLocatedParseError("COMP ow=1,2\n", 1, "ow");
  ExpectLocatedParseError("COMP ow=\n", 1, "ow");
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz of assembly text: every mutant of the disassembled
// TinyCnn program either assembles to words whose disassembly repeats each
// key=value of the mutant, or throws a ParseError naming the mutated line.

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string w;
  while (in >> w) words.push_back(w);
  return words;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) out += (out.empty() ? "" : " ") + w;
  return out;
}

/// One seeded mutation of a line: a token dropped or duplicated, a number
/// replaced by a random value below 2^33, or a key altered.
std::string MutateLine(const std::string& line, Prng& prng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        prng.NextInt(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto kind = prng.NextInt(0, 3);
  if (kind <= 1) {
    std::vector<std::string> words = SplitWords(line);
    auto nth = [&](std::size_t i) {
      return words.begin() + static_cast<std::ptrdiff_t>(i);
    };
    const std::size_t at = pick(words.size());
    if (kind == 0) {
      words.erase(nth(at));
    } else {
      const std::string copy = words[at];
      words.insert(nth(pick(words.size() + 1)), copy);
    }
    return JoinWords(words);
  }
  TextLine text(line);
  if (text.kv.empty()) return line;
  auto& [key, values] = text.kv[pick(text.kv.size())];
  if (kind == 2) {
    const int bits = static_cast<int>(prng.NextInt(1, 33));
    values[pick(values.size())] =
        std::to_string(prng.NextU64() & LowMask(bits));
  } else {
    const char c = static_cast<char>('a' + prng.NextInt(0, 25));
    const std::size_t at = pick(key.size() + 1);
    if (at == key.size()) {
      key += c;
    } else {
      key[at] = c;
    }
  }
  return text.Render();
}

std::uint64_t TextNumber(const std::string& s) {
  return std::stoull(s, nullptr, 0);
}

TEST(AssemblerFuzzTest, MutantsAssembleFaithfullyOrFailWithTheirLine) {
  const std::string text = DisassembleProgram(
      CompileGoldenProgram("tiny_cnn", "PYNQ-Z1", /*fused=*/true));
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  Prng prng(0xa55e3b1e);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::size_t at = static_cast<std::size_t>(
        prng.NextInt(0, static_cast<std::int64_t>(lines.size()) - 1));
    const std::string mutant = MutateLine(lines[at], prng);
    std::string mutated_text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      mutated_text += (i == at ? mutant : lines[i]) + "\n";
    }
    try {
      const std::vector<Instruction> program = AssembleProgram(mutated_text);
      ++accepted;
      if (SplitWords(mutant).empty()) {  // a dropped lone END
        EXPECT_EQ(program.size(), lines.size() - 1);
        continue;
      }
      ASSERT_EQ(program.size(), lines.size()) << mutant;
      const TextLine want(mutant);
      const TextLine got(Disassemble(program[at]));
      EXPECT_EQ(got.mnemonic, want.mnemonic) << mutant;
      for (const auto& [key, values] : want.kv) {
        const auto it =
            std::find_if(got.kv.begin(), got.kv.end(),
                         [&](const auto& kv) { return kv.first == key; });
        ASSERT_NE(it, got.kv.end()) << "key " << key << " lost: " << mutant;
        ASSERT_EQ(it->second.size(), values.size()) << mutant;
        for (std::size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(TextNumber(it->second[i]), TextNumber(values[i]))
              << key << " in: " << mutant;
        }
      }
    } catch (const ParseError& e) {
      ++rejected;
      const std::string where = "line " + std::to_string(at + 1) + ":";
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant threw a non-ParseError: " << e.what() << "\n"
                    << mutant;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hdnn
