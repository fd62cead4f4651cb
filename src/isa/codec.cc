// Encoder, decoder, disassembler and assembler of the 128-bit HybridDNN ISA.
//
// Paper Fig. 2 names the fields of every instruction but gives no bit
// positions. The positions chosen here live in one place, ForEachRow: each
// payload field is one row
//   v(key, bit position, width, member[, bias])
// listed in disassembly order, and Encode, Decode, Disassemble and
// AssembleLine are each one generic walk over those rows (DESIGN.md "ISA
// row tables"). Three rules cover the text format and the odd fields:
//   - a key on consecutive rows is one comma list (pad=t,b,l,r);
//   - `bias` is subtracted before a value is stored (stride 1-4 in 2 bits);
//   - width 0 marks a field the format does not carry: its value must equal
//     the bias (SAVE_RES cannot fuse a max-pool, so its pool must be 1).
#include "isa/codec.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/check.h"
#include "isa/assembler.h"

namespace hdnn {
namespace {

// Common header; BUFF_ID [116,118) is given meaning by each format's rows.
constexpr int kOpcodePos = 124;
constexpr int kDeptPos = 118, kDeptBits = 6;

/// Mnemonics indexed by opcode value.
constexpr const char* kOpcodeNames[] = {
    "NOP",  "LOAD_INP", "LOAD_WGT", "LOAD_BIAS",   "COMP",       "SAVE",
    "SAVE_RES", "END",  "SAVE_KR",  "SAVE_RES_KR", "LOAD_INP_KR",
};
static_assert(std::size(kOpcodeNames) ==
              static_cast<std::size_t>(Opcode::kLoadInpKr) + 1);

/// The payload rows of each format (CtrlFields has none).
template <class F, class V>
void ForEachRow(F& f, V&& v) {
  using T = std::remove_const_t<F>;
  if constexpr (std::is_same_v<T, LoadFields>) {
    v("buff", 116, 2, f.buff_id);
    v("base", 102, 14, f.buff_base);
    v("dram", 74, 28, f.dram_base);
    v("rows", 66, 8, f.rows);
    v("cols", 56, 10, f.cols);
    v("cv", 44, 12, f.chan_vecs);
    v("aux", 32, 12, f.aux);
    v("pitch", 20, 12, f.pitch);
    v("pad", 16, 4, f.pad_t);
    v("pad", 12, 4, f.pad_b);
    v("pad", 8, 4, f.pad_l);
    v("pad", 4, 4, f.pad_r);
    v("wino", 3, 1, f.wino);
    v("woff", 0, 3, f.wino_offset);
  } else if constexpr (std::is_same_v<T, CompFields>) {
    v("ib", 116, 1, f.inp_buff_id);
    v("wb", 117, 1, f.wgt_buff_id);
    v("ob", 1, 1, f.out_buff_id);
    v("ibase", 104, 12, f.inp_buff_base);
    v("obase", 92, 12, f.out_buff_base);
    v("wbase", 80, 12, f.wgt_buff_base);
    v("iw", 70, 10, f.iw_num);
    v("ow", 60, 10, f.ow_num);
    v("oh", 57, 3, f.oh_num);
    v("icv", 45, 12, f.ic_vecs);
    v("ocv", 33, 12, f.oc_vecs);
    v("stride", 31, 2, f.stride, 1);
    v("relu", 30, 1, f.relu);
    v("quan", 25, 5, f.quan);
    v("wino", 24, 1, f.wino);
    v("woff", 20, 4, f.wino_offset);
    v("kh", 16, 4, f.kh);
    v("kw", 12, 4, f.kw);
    v("brow", 8, 4, f.base_row);
    v("bcol", 4, 4, f.base_col);
    v("aclr", 3, 1, f.accum_clear);
    v("aemit", 2, 1, f.accum_emit);
  } else if constexpr (std::is_same_v<T, SaveFields>) {
    // SAVE_RES narrows the geometry (residual layers are conv-scale and
    // never pool) to make room for the residual source address.
    const bool r = f.res_add;
    v("buff", 116, 2, f.buff_id);
    v("base", r ? 112 : 104, r ? 4 : 12, f.buff_base);
    v("dram", r ? 84 : 72, r ? 28 : 32, f.dram_base);
    v("rows", r ? 50 : 66, 6, f.rows);
    v("cols", r ? 41 : 54, r ? 9 : 12, f.cols);
    v("ocv", r ? 34 : 42, r ? 7 : 12, f.oc_vecs);
    v("layout", r ? 32 : 40, 2, f.layout);
    v("pool", 37, r ? 0 : 3, f.pool, r ? 1 : 0);
    v("oh", r ? 20 : 25, r ? 10 : 12, f.out_h);
    v("ow", r ? 10 : 13, r ? 10 : 12, f.out_w);
    v("ocp", 0, r ? 10 : 13, f.oc_pitch);
    if (!r) return;
    v("rdram", 56, 28, f.res_dram_base);
    v("rwino", 31, 1, f.res_wino);
    v("relu", 30, 1, f.relu);
  }
}

using Bits128 = unsigned __int128;

Bits128 Join(const Word128& w) { return (Bits128{w.hi} << 64) | w.lo; }

Word128 Split(Bits128 bits) {
  return Word128{static_cast<std::uint64_t>(bits),
                 static_cast<std::uint64_t>(bits >> 64)};
}

/// True when a row of `width` bits and `bias` holds `value`; the unsigned
/// subtraction wraps for value < bias, which then fails as well.
bool Fits(std::uint64_t value, int width, int bias) {
  return value - static_cast<std::uint64_t>(bias) <= LowMask(width);
}

std::string RangeMessage(std::string_view key, const std::string& value,
                         int width, int bias) {
  return std::string(key) + "=" + value + " is out of range [" +
         std::to_string(bias) + ", " +
         std::to_string(LowMask(width) + static_cast<std::uint64_t>(bias)) +
         "]";
}

[[noreturn, gnu::cold]] void ThrowOverflow(Opcode op, std::string_view key,
                                           std::uint64_t value, int width,
                                           int bias) {
  throw InvalidArgument(std::string(OpcodeName(op)) + " " +
                        RangeMessage(key, std::to_string(value), width, bias));
}

Opcode OpOf(const LoadFields& f) {
  return f.keep_resident ? Opcode::kLoadInpKr : f.op;
}
Opcode OpOf(const CompFields&) { return Opcode::kComp; }
Opcode OpOf(const SaveFields& f) {
  if (f.keep_resident) return f.res_add ? Opcode::kSaveResKr : Opcode::kSaveKr;
  return f.res_add ? Opcode::kSaveRes : Opcode::kSave;
}
Opcode OpOf(const CtrlFields& f) { return f.op; }

/// The checks a row cannot express.
void CheckSemantics(const LoadFields& f) {
  HDNN_CHECK(f.op == Opcode::kLoadInp || f.op == Opcode::kLoadWgt ||
             f.op == Opcode::kLoadBias)
      << "LoadFields with non-load opcode";
  HDNN_CHECK(!f.keep_resident || f.op == Opcode::kLoadInp)
      << "keep_resident applies to LOAD_INP only";
}
void CheckSemantics(const CompFields&) {}
void CheckSemantics(const SaveFields& f) {
  HDNN_CHECK(f.res_add || !f.relu)
      << "SAVE without a residual add cannot carry a ReLU (COMP fuses it)";
}
void CheckSemantics(const CtrlFields& f) {
  HDNN_CHECK(f.op == Opcode::kNop || f.op == Opcode::kEnd)
      << "control instruction must be NOP or END";
}

/// The fields an opcode decodes into, with what the opcode itself carries
/// (LOAD kind, residual add, keep-resident) already set.
InstrFields BlankFields(Opcode op) {
  if (op == Opcode::kComp) return CompFields{};
  if (IsSaveOpcode(op)) {
    SaveFields f;
    f.res_add = op == Opcode::kSaveRes || op == Opcode::kSaveResKr;
    f.keep_resident = op == Opcode::kSaveKr || op == Opcode::kSaveResKr;
    return f;
  }
  if (op == Opcode::kNop || op == Opcode::kEnd) return CtrlFields{op, 0};
  LoadFields f;
  f.keep_resident = op == Opcode::kLoadInpKr;
  f.op = f.keep_resident ? Opcode::kLoadInp : op;
  return f;
}

/// Writes each row into the word. Rows never overlap (IsaGoldenTest), so a
/// field is OR-ed into a zeroed word.
struct RowPacker {
  Opcode op;
  Bits128 bits;

  template <class T>
  void operator()(std::string_view key, int pos, int width, const T& member,
                  int bias = 0) {
    const auto value = static_cast<std::uint64_t>(member);
    if (!Fits(value, width, bias)) [[unlikely]] {
      ThrowOverflow(op, key, value, width, bias);
    }
    bits |= Bits128{value - static_cast<std::uint64_t>(bias)} << pos;
  }
};

struct RowUnpacker {
  Bits128 bits;

  template <class T>
  void operator()(std::string_view, int pos, int width, T& member,
                  int bias = 0) const {
    member = static_cast<T>((static_cast<std::uint64_t>(bits >> pos) &
                             LowMask(width)) +
                            static_cast<std::uint64_t>(bias));
  }
};

/// Renders each row as ` key=value`, or `,value` when the key repeats.
struct RowPrinter {
  std::ostringstream& out;
  std::string_view prev_key;

  template <class T>
  void operator()(std::string_view key, int, int, const T& member, int = 0) {
    if (key == prev_key) {
      out << ',';
    } else {
      out << ' ' << key << '=';
    }
    out << static_cast<std::uint64_t>(member);
    prev_key = key;
  }
};

/// The key=value tokens of one assembly line. Each row takes the next
/// comma-separated value of its key; a key no row takes, or a value left
/// over, is an error.
class RowReader {
 public:
  explicit RowReader(std::istringstream& in) {
    std::string token;
    while (in >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        throw ParseError("malformed token '" + token +
                         "' (expected key=value)");
      }
      Entry e{token.substr(0, eq), {}, 0};
      for (std::size_t start = eq + 1;;) {
        const auto comma = token.find(',', start);
        e.values.push_back(token.substr(start, comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (Find(e.key) != nullptr) {
        throw ParseError("duplicate key '" + e.key + "'");
      }
      entries_.push_back(std::move(e));
    }
  }

  template <class T>
  void operator()(std::string_view key, int, int width, T& member,
                  int bias = 0) {
    Entry* e = Find(key);
    if (e == nullptr) return;  // absent: the field keeps its default
    if (e->taken == e->values.size()) {
      throw ParseError("too few values for key '" + e->key + "'");
    }
    const std::string& text = e->values[e->taken++];
    const std::uint64_t value = ParseNumber(text, e->key);
    if (!Fits(value, width, bias)) {
      throw ParseError(RangeMessage(key, text, width, bias));
    }
    member = static_cast<T>(value);
  }

  /// Throws on a key no row took or a value no row took.
  void CheckAllTaken() const {
    for (const Entry& e : entries_) {
      if (e.taken == 0) throw ParseError("unknown key '" + e.key + "'");
      if (e.taken != e.values.size()) {
        throw ParseError("too many values for key '" + e.key + "'");
      }
    }
  }

 private:
  struct Entry {
    std::string key;
    std::vector<std::string> values;
    std::size_t taken;
  };

  Entry* Find(std::string_view key) {
    for (Entry& e : entries_) {
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  /// Unsigned decimal or 0x-hex; signs and blanks are rejected.
  static std::uint64_t ParseNumber(const std::string& text,
                                   const std::string& key) {
    std::size_t used = 0;
    std::uint64_t value = 0;
    if (!text.empty() && text[0] >= '0' && text[0] <= '9') {
      try {
        value = std::stoull(text, &used, 0);
      } catch (const std::exception&) {
        used = 0;
      }
    }
    if (used == 0 || used != text.size()) {
      throw ParseError("bad numeric value '" + text + "' for key '" + key +
                       "'");
    }
    return value;
  }

  std::vector<Entry> entries_;
};

}  // namespace

const char* OpcodeName(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpcodeNames) ? kOpcodeNames[i] : "INVALID";
}

const char* SaveLayoutName(SaveLayout layout) {
  switch (layout) {
    case SaveLayout::kSpatToSpat:
      return "SPAT-to-SPAT";
    case SaveLayout::kSpatToWino:
      return "SPAT-to-WINO";
    case SaveLayout::kWinoToSpat:
      return "WINO-to-SPAT";
    case SaveLayout::kWinoToWino:
      return "WINO-to-WINO";
  }
  return "INVALID";
}

Opcode OpcodeOf(const InstrFields& fields) {
  return std::visit([](const auto& f) { return OpOf(f); }, fields);
}

Instruction Encode(const InstrFields& fields) {
  return std::visit(
      [](const auto& f) {
        CheckSemantics(f);
        const Opcode op = OpOf(f);
        RowPacker pack{op,
                       Bits128{static_cast<std::uint8_t>(op)} << kOpcodePos};
        pack("dept", kDeptPos, kDeptBits, f.dept);
        ForEachRow(f, pack);
        return Split(pack.bits);
      },
      fields);
}

Opcode PeekOpcode(const Instruction& instr) {
  const std::uint64_t raw = instr.hi >> (kOpcodePos - 64);
  if (raw >= std::size(kOpcodeNames)) {
    throw InvalidArgument("invalid opcode " + std::to_string(raw));
  }
  return static_cast<Opcode>(raw);
}

InstrFields Decode(const Instruction& instr) {
  InstrFields fields = BlankFields(PeekOpcode(instr));
  std::visit(
      [&](auto& f) {
        const RowUnpacker unpack{Join(instr)};
        unpack("dept", kDeptPos, kDeptBits, f.dept);
        ForEachRow(f, unpack);
      },
      fields);
  return fields;
}

void ValidateProgram(const std::vector<Instruction>& program) {
  HDNN_CHECK(!program.empty()) << "empty program";
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Opcode op = PeekOpcode(program[i]);  // throws on invalid encoding
    if (op == Opcode::kEnd) {
      HDNN_CHECK(i == program.size() - 1)
          << "END at index " << i << " is not the last instruction";
      return;
    }
  }
  throw InvalidArgument("program is not END-terminated");
}

std::string Disassemble(const Instruction& instr) {
  const InstrFields fields = Decode(instr);
  std::ostringstream out;
  out << OpcodeName(OpcodeOf(fields));
  std::visit(
      [&](const auto& f) {
        // NOP and END print their DEPT_FLAG only when it is set.
        if (!std::is_same_v<std::decay_t<decltype(f)>, CtrlFields> ||
            f.dept != 0) {
          out << " dept=0x" << std::hex << int{f.dept} << std::dec;
        }
        ForEachRow(f, RowPrinter{out, {}});
      },
      fields);
  return out.str();
}

std::string DisassembleProgram(const std::vector<Instruction>& program) {
  std::ostringstream out;
  for (const Instruction& instr : program) out << Disassemble(instr) << "\n";
  return out.str();
}

Instruction AssembleLine(const std::string& line) {
  std::istringstream in(line);
  std::string mnemonic;
  if (!(in >> mnemonic)) throw ParseError("empty instruction line");
  const auto name = std::find(std::begin(kOpcodeNames),
                              std::end(kOpcodeNames), mnemonic);
  if (name == std::end(kOpcodeNames)) {
    throw ParseError("unknown mnemonic: " + mnemonic);
  }
  InstrFields fields =
      BlankFields(static_cast<Opcode>(name - std::begin(kOpcodeNames)));
  RowReader read(in);
  std::visit(
      [&](auto& f) {
        read("dept", kDeptPos, kDeptBits, f.dept);
        ForEachRow(f, read);
      },
      fields);
  read.CheckAllTaken();
  return Encode(fields);
}

std::vector<Instruction> AssembleProgram(const std::string& text) {
  std::vector<Instruction> program;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    try {
      program.push_back(AssembleLine(line));
    } catch (const ParseError& e) {
      throw ParseError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return program;
}

}  // namespace hdnn
