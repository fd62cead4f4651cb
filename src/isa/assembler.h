// Textual assembler / disassembler for HybridDNN instruction streams —
// the format the instruction-trace example prints and the compiler's debug
// dumps use. The textual form round-trips: Assemble(Disassemble(p)) == p.
// Both walk the row tables in codec.cc, so the text keys are the row keys.
//
// Syntax, one instruction per line ('#' starts a comment):
//   LOAD_INP  dept=0x3 buff=1 base=0 dram=1024 rows=6 cols=224 cv=16
//             aux=224 pad=1,0,1,1 wino=1 woff=0   (single line in practice)
//   COMP      dept=0x1f ... (key=value pairs, any order after the mnemonic)
//   SAVE      ...
//   END
// Keys are checked: an unknown or repeated key, a value that is not an
// unsigned decimal or 0x-hex number, a value outside its field's range and
// a wrong count of comma-separated values are all rejected. An omitted key
// keeps its field's default.
#ifndef HDNN_ISA_ASSEMBLER_H_
#define HDNN_ISA_ASSEMBLER_H_

#include <string>
#include <vector>

#include "isa/codec.h"

namespace hdnn {

/// Renders one instruction as one line of assembly text.
std::string Disassemble(const Instruction& instr);

/// Renders a whole program.
std::string DisassembleProgram(const std::vector<Instruction>& program);

/// Parses one line; throws ParseError naming the key on malformed input.
Instruction AssembleLine(const std::string& line);

/// Parses a whole program (skips blank lines and comments); a ParseError
/// names the line ("line N: ...").
std::vector<Instruction> AssembleProgram(const std::string& text);

}  // namespace hdnn

#endif  // HDNN_ISA_ASSEMBLER_H_
