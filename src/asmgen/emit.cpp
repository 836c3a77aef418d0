#include "asmgen/code_image.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "asmgen/encode.h"
#include "support/error.h"

namespace aviv {

namespace {

// Appends one listing to a caller's buffer through a cursor: the string is
// grown ahead of the cursor and cut back to it at the end, so each piece
// is one bounds check and one copy (literals copy a constant size), and
// numbers go through std::to_chars straight into the buffer.
class AsmWriter {
 public:
  AsmWriter(std::string& out, size_t expectedBytes, const Machine& machine,
            const std::vector<int>* symbolAddrs)
      : out_(out), len_(out.size()), machine_(machine),
        symbolAddrs_(symbolAddrs) {
    out_.resize(len_ + expectedBytes);
  }
  ~AsmWriter() { out_.resize(len_); }

  template <size_t N>
  AsmWriter& lit(const char (&s)[N]) {
    return put(s, N - 1);
  }
  AsmWriter& text(const std::string& s) { return put(s.data(), s.size()); }

  AsmWriter& num(int64_t v) {
    constexpr size_t kMaxDigits = 20;  // "-9223372036854775808"
    reserve(kMaxDigits);
    char* at = out_.data() + len_;
    const char* end = std::to_chars(at, at + kMaxDigits, v).ptr;
    len_ += static_cast<size_t>(end - at);
    return *this;
  }

  AsmWriter& reg(Loc loc, int reg) {
    AVIV_CHECK(loc.isRegFile());
    return text(machine_.regFile(loc.index).name).lit(".r").num(reg);
  }

  AsmWriter& mem(Loc loc, int addr, const std::string& comment) {
    AVIV_CHECK(loc.isMemory());
    if (symbolAddrs_ != nullptr) addr = boundAddr(addr, *symbolAddrs_);
    text(machine_.memory(loc.index).name).lit("[").num(addr).lit("]");
    if (!comment.empty()) lit("{").text(comment).lit("}");
    return *this;
  }

 private:
  void reserve(size_t n) {
    if (out_.size() - len_ < n)
      out_.resize(std::max(2 * out_.size(), len_ + n));
  }
  AsmWriter& put(const char* s, size_t n) {
    reserve(n);
    std::memcpy(out_.data() + len_, s, n);
    len_ += n;
    return *this;
  }

  std::string& out_;
  size_t len_;  // bytes written; out_ holds scratch space past them
  const Machine& machine_;
  const std::vector<int>* symbolAddrs_;
};

// Bytes expected per listing line: a little over a typical two-slot line,
// so most listings fill one allocation.
constexpr size_t kBytesPerLine = 64;

}  // namespace

std::string CodeImage::asmText(const Machine& machine) const {
  std::string out;
  appendAsmText(out, machine);
  return out;
}

void CodeImage::appendAsmText(std::string& out, const Machine& machine,
                              const std::vector<int>* symbolAddrs) const {
  size_t lines = 1 + outputs.size();
  for (const EncInstr& instr : instrs)
    lines += 1 + (instr.ops.size() + instr.xfers.size()) / 2;
  AsmWriter w(out, lines * kBytesPerLine, machine, symbolAddrs);
  w.lit("; block ").text(blockName).lit(" on ").text(machineName);
  w.lit(" — ").num(static_cast<int64_t>(instrs.size()));
  w.lit(" instructions\n");
  for (size_t c = 0; c < instrs.size(); ++c) {
    const EncInstr& instr = instrs[c];
    w.lit("i").num(static_cast<int64_t>(c)).lit(": {");
    bool first = true;
    for (const EncOp& op : instr.ops) {
      if (!first) w.lit(" |");
      first = false;
      const Loc bank = machine.unitLoc(op.unit);
      w.lit(" ").text(machine.unit(op.unit).name).lit(": ");
      w.text(op.mnemonic).lit(" ").reg(bank, op.dstReg);
      for (const EncOperand& src : op.srcs) {
        w.lit(", ");
        if (src.isImm)
          w.lit("#").num(src.imm);
        else
          w.reg(bank, src.reg);
      }
    }
    for (const EncXfer& xfer : instr.xfers) {
      if (!first) w.lit(" |");
      first = false;
      w.lit(" ").text(machine.bus(xfer.bus).name).lit(": mov ");
      if (xfer.to.isRegFile())
        w.reg(xfer.to, xfer.dstReg);
      else
        w.mem(xfer.to, xfer.memAddr, xfer.comment);
      w.lit(", ");
      if (xfer.from.isRegFile())
        w.reg(xfer.from, xfer.srcReg);
      else
        w.mem(xfer.from, xfer.memAddr, xfer.comment);
    }
    w.lit(" }\n");
  }
  for (const OutputBinding& binding : outputs) {
    w.lit("; output ").text(binding.name).lit(" in ");
    if (binding.inMemory)
      w.mem(Loc::memory(machine.dataMemory()), binding.memAddr, "");
    else
      w.reg(binding.loc, binding.reg);
    w.lit("\n");
  }
}

}  // namespace aviv
