// Parser for the block language — the textual stand-in for the C/SUIF front
// end (DESIGN.md substitution #1). A .blk file contains one or more blocks:
//
//   block ex1 {
//     input a, b, c, d;
//     output y;
//     t = (a + b) * c;
//     y = (d + t) - b;
//   }
//
// Statements:
//   input x, y;              declare live-in values (reside in data memory)
//   output z;                declare live-out values
//   name = expr;             bind a temp / output (rebinding allowed)
//   repeat N { ... }         loop unrolling sugar: the body is instantiated
//                            N times with every "$i" in identifiers replaced
//                            by 0..N-1 (models the front end's unrolling)
//   goto blk; | if c goto a else b; | return;     optional terminator (last)
//
// Expressions: integer literals (decimal/hex), identifiers, parentheses,
// unary - ~, binary * / % + - << >> < <= > >= == != & ^ |, and intrinsic
// calls min(a,b) max(a,b) abs(a) mac(a,b,c) msu(a,b,c).
#pragma once

#include <string>
#include <string_view>

#include "ir/program.h"

namespace aviv {

// Parses a whole file (one or more blocks) into a Program. The first block
// is the entry block. Blocks without an explicit terminator get kReturn if
// last, else kJump to the next block in the file. Malformed input raises
// aviv::ParseError with every diagnostic found by panic-mode recovery;
// nothing on this path aborts the process.
[[nodiscard]] Program parseProgram(std::string_view source,
                                   const std::string& programName);

// Convenience for single-block sources: parses and returns just the DAG.
// Throws aviv::Error if the source defines more than one block.
[[nodiscard]] BlockDag parseBlock(std::string_view source);

// Loads blocks/<name>.blk and parses the single block inside it.
[[nodiscard]] BlockDag loadBlock(const std::string& name);

}  // namespace aviv
