#include "ir/parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "support/io.h"
#include "support/lexer.h"

namespace aviv {

namespace {

const std::vector<std::string> kPuncts = {"<<", ">>", "==", "!=",
                                          "<=", ">=", "->"};

// ---------------------------------------------------------------------
// `repeat N { ... }` expansion, performed on the token stream before
// parsing. Substitutes "$i" inside identifiers with the iteration number.
// ---------------------------------------------------------------------

std::vector<Token> lexAll(std::string_view source) {
  Lexer lexer(source, kPuncts);
  std::vector<Token> tokens;
  while (true) {
    Token tok = lexer.next();
    const bool end = tok.is(Token::Kind::kEnd);
    tokens.push_back(std::move(tok));
    if (end) return tokens;
  }
}

Token substituteIndex(Token tok, int iteration) {
  if (!tok.is(Token::Kind::kIdent)) return tok;
  const std::string needle = "$i";
  std::string text = tok.text;
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    text.replace(pos, needle.size(), std::to_string(iteration));
  }
  if (text != tok.text) {
    // A bare "$i" becomes a plain number token. Substitution results too
    // long for int64 (e.g. "$i" pasted between digit runs) stay
    // identifiers — std::stoll would throw std::out_of_range, which is not
    // part of the error taxonomy.
    const bool allDigits =
        !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c));
        });
    if (allDigits && text.size() <= 18) {
      tok.kind = Token::Kind::kNumber;
      tok.number = std::stoll(text);
    }
    tok.text = std::move(text);
  }
  return tok;
}

std::vector<Token> expandRepeats(std::vector<Token> in) {
  // Most blocks have no repeat: hand their stream through untouched.
  if (std::none_of(in.begin(), in.end(),
                   [](const Token& tok) { return tok.isIdent("repeat"); }))
    return in;
  std::vector<Token> out;
  size_t i = 0;
  while (i < in.size()) {
    if (!in[i].isIdent("repeat")) {
      out.push_back(in[i++]);
      continue;
    }
    const SourceLoc repeatLoc = in[i].loc;
    ++i;
    if (i >= in.size() || !in[i].is(Token::Kind::kNumber))
      throw Error(repeatLoc, "repeat expects a literal count");
    const int64_t count = in[i].number;
    if (count < 1 || count > 1024)
      throw Error(in[i].loc, "repeat count must be in [1, 1024]");
    ++i;
    if (i >= in.size() || !in[i].isPunct("{"))
      throw Error(repeatLoc, "repeat expects '{'");
    ++i;
    // Collect the body up to the matching close brace.
    std::vector<Token> body;
    int depth = 1;
    while (i < in.size() && depth > 0) {
      if (in[i].isIdent("repeat"))
        throw Error(in[i].loc, "nested repeat is not supported");
      if (in[i].isPunct("{")) ++depth;
      if (in[i].isPunct("}")) {
        --depth;
        if (depth == 0) break;
      }
      body.push_back(in[i++]);
    }
    if (depth != 0) throw Error(repeatLoc, "unterminated repeat body");
    ++i;  // closing brace
    for (int64_t iter = 0; iter < count; ++iter)
      for (const Token& tok : body)
        out.push_back(substituteIndex(tok, static_cast<int>(iter)));
  }
  return out;
}

// ---------------------------------------------------------------------
// Recursive-descent expression/statement parser over the expanded tokens.
// ---------------------------------------------------------------------

// Diagnostic cap: a pathological input (fuzzer output, truncated file)
// should not produce an unbounded report.
constexpr size_t kMaxDiagnostics = 32;

class BlockParser {
 public:
  BlockParser(std::vector<Token> tokens, std::string sourceName)
      : tokens_(std::move(tokens)), sourceName_(std::move(sourceName)) {}

  Program parse(const std::string& programName) {
    Program program(programName);
    if (!peek().isIdent("block")) {
      recordDiag(peek().loc, "expected 'block', got " + peek().describe());
      throw ParseError(sourceName_, std::move(diags_));
    }
    // Collect blocks plus implicit fallthrough terminators.
    struct Parsed {
      BlockDag dag;
      Terminator term;
      bool explicitTerm;
    };
    std::vector<Parsed> parsed;
    while (!peek().is(Token::Kind::kEnd) &&
           diags_.size() < kMaxDiagnostics) {
      try {
        auto [dag, term, explicitTerm] = parseBlockDef();
        parsed.push_back({std::move(dag), std::move(term), explicitTerm});
      } catch (const ParseError&) {
        throw;  // already aggregated
      } catch (const Error& e) {
        // Panic-mode: record and resynchronize at the next 'block' header.
        recordDiag(toDiagnostic(e));
        while (!peek().is(Token::Kind::kEnd) && !peek().isIdent("block"))
          next();
      }
    }
    if (!diags_.empty()) throw ParseError(sourceName_, std::move(diags_));
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].explicitTerm && i + 1 < parsed.size()) {
        parsed[i].term.kind = TermKind::kJump;
        parsed[i].term.target = parsed[i + 1].dag.name();
      }
      program.addBlock(std::move(parsed[i].dag), std::move(parsed[i].term));
    }
    program.validate();
    return program;
  }

 private:
  struct BlockResult {
    BlockDag dag;
    Terminator term;
    bool explicitTerm;
  };

  BlockResult parseBlockDef() {
    expectIdentKeyword("block");
    const Token& nameTok = expectIdent();
    BlockDag dag(nameTok.text);
    expectPunct("{");

    env_.clear();
    declaredOutputs_.clear();
    Terminator term;
    bool explicitTerm = false;
    const size_t diagsBefore = diags_.size();

    while (!peek().isPunct("}") && !peek().is(Token::Kind::kEnd) &&
           diags_.size() < kMaxDiagnostics) {
      if (explicitTerm) {
        recordDiag(peek().loc, "statements after block terminator");
        // One report per block, then skip to the closing brace.
        while (!peek().is(Token::Kind::kEnd) && !peek().isPunct("}")) next();
        break;
      }
      try {
        parseStatement(dag, term, explicitTerm);
      } catch (const Error& e) {
        // Panic-mode: record, then resynchronize after the next ';' (or
        // stop at '}' / 'block' / end so the enclosing loops regain
        // control).
        recordDiag(toDiagnostic(e));
        while (!peek().is(Token::Kind::kEnd) && !peek().isPunct("}") &&
               !peek().isIdent("block")) {
          if (next().isPunct(";")) break;
        }
        if (peek().isIdent("block")) {
          // Probably a missing '}': bail out of this block entirely.
          return {std::move(dag), std::move(term), explicitTerm};
        }
      }
    }
    expectPunct("}");

    // A block that produced diagnostics is structurally suspect: skip
    // output binding and verification (parse() throws before anything
    // downstream can consume the half-built DAG).
    if (diags_.size() > diagsBefore)
      return {std::move(dag), std::move(term), explicitTerm};

    for (const std::string& outName : declaredOutputs_) {
      const auto it = env_.find(outName);
      if (it == env_.end())
        throw Error(nameTok.loc,
                    "output '" + outName + "' never assigned in block '" +
                        nameTok.text + "'");
      dag.markOutput(outName, it->second);
    }
    dag.verify();
    return {std::move(dag), std::move(term), explicitTerm};
  }

  void parseStatement(BlockDag& dag, Terminator& term, bool& explicitTerm) {
      if (tryConsumeIdent("input")) {
        do {
          const Token& var = expectIdent();
          env_[var.text] = dag.addInput(var.text);
        } while (tryConsume(","));
        expectPunct(";");
      } else if (tryConsumeIdent("output")) {
        do {
          const Token& var = expectIdent();
          declaredOutputs_.insert(var.text);
        } while (tryConsume(","));
        expectPunct(";");
      } else if (tryConsumeIdent("goto")) {
        term.kind = TermKind::kJump;
        term.target = expectIdent().text;
        expectPunct(";");
        explicitTerm = true;
      } else if (tryConsumeIdent("return")) {
        term.kind = TermKind::kReturn;
        expectPunct(";");
        explicitTerm = true;
      } else if (peek().isIdent("if")) {
        next();
        term.kind = TermKind::kBranch;
        const Token& cond = expectIdent();
        term.condVar = cond.text;
        if (!env_.count(cond.text))
          throw Error(cond.loc, "branch condition '" + cond.text +
                                    "' is not a defined value");
        declaredOutputs_.insert(cond.text);  // branches read it as an output
        expectIdentKeyword("goto");
        term.target = expectIdent().text;
        expectIdentKeyword("else");
        term.elseTarget = expectIdent().text;
        expectPunct(";");
        explicitTerm = true;
      } else {
        // Assignment statement.
        const Token& lhs = expectIdent();
        expectPunct("=");
        const NodeId value = parseExpr(dag);
        expectPunct(";");
        env_[lhs.text] = value;
      }
  }

  // Precedence climbing: | < ^ < & < comparisons < shifts < +- < */%.
  NodeId parseExpr(BlockDag& dag) { return parseOr(dag); }

  NodeId parseOr(BlockDag& dag) {
    NodeId lhs = parseXor(dag);
    while (tryConsume("|")) lhs = dag.addOp(Op::kOr, {lhs, parseXor(dag)});
    return lhs;
  }
  NodeId parseXor(BlockDag& dag) {
    NodeId lhs = parseAnd(dag);
    while (tryConsume("^")) lhs = dag.addOp(Op::kXor, {lhs, parseAnd(dag)});
    return lhs;
  }
  NodeId parseAnd(BlockDag& dag) {
    NodeId lhs = parseCompare(dag);
    while (tryConsume("&"))
      lhs = dag.addOp(Op::kAnd, {lhs, parseCompare(dag)});
    return lhs;
  }
  NodeId parseCompare(BlockDag& dag) {
    NodeId lhs = parseShift(dag);
    while (true) {
      Op op;
      if (peek().isPunct("==")) op = Op::kEq;
      else if (peek().isPunct("!=")) op = Op::kNe;
      else if (peek().isPunct("<=")) op = Op::kLe;
      else if (peek().isPunct(">=")) op = Op::kGe;
      else if (peek().isPunct("<")) op = Op::kLt;
      else if (peek().isPunct(">")) op = Op::kGt;
      else return lhs;
      next();
      lhs = dag.addOp(op, {lhs, parseShift(dag)});
    }
  }
  NodeId parseShift(BlockDag& dag) {
    NodeId lhs = parseAdd(dag);
    while (true) {
      if (tryConsume("<<")) lhs = dag.addOp(Op::kShl, {lhs, parseAdd(dag)});
      else if (tryConsume(">>")) lhs = dag.addOp(Op::kShr, {lhs, parseAdd(dag)});
      else return lhs;
    }
  }
  NodeId parseAdd(BlockDag& dag) {
    NodeId lhs = parseMul(dag);
    while (true) {
      if (tryConsume("+")) lhs = dag.addOp(Op::kAdd, {lhs, parseMul(dag)});
      else if (tryConsume("-")) lhs = dag.addOp(Op::kSub, {lhs, parseMul(dag)});
      else return lhs;
    }
  }
  NodeId parseMul(BlockDag& dag) {
    NodeId lhs = parseUnary(dag);
    while (true) {
      if (tryConsume("*")) lhs = dag.addOp(Op::kMul, {lhs, parseUnary(dag)});
      else if (tryConsume("/")) lhs = dag.addOp(Op::kDiv, {lhs, parseUnary(dag)});
      else if (tryConsume("%")) lhs = dag.addOp(Op::kMod, {lhs, parseUnary(dag)});
      else return lhs;
    }
  }
  NodeId parseUnary(BlockDag& dag) {
    if (tryConsume("-")) return dag.addOp(Op::kNeg, {parseUnary(dag)});
    if (tryConsume("~")) return dag.addOp(Op::kCompl, {parseUnary(dag)});
    return parsePrimary(dag);
  }
  NodeId parsePrimary(BlockDag& dag) {
    // Peek before consuming: on a syntax error the offending token must
    // stay in the stream so panic-mode resynchronization (which scans for
    // the next ';') doesn't swallow the following statement.
    const Token& tok = peek();
    if (tok.is(Token::Kind::kNumber)) {
      next();
      return dag.addConst(tok.number);
    }
    if (tok.isPunct("(")) {
      next();
      const NodeId inner = parseExpr(dag);
      expectPunct(")");
      return inner;
    }
    if (tok.is(Token::Kind::kIdent)) {
      next();
      if (peek().isPunct("(")) return parseIntrinsic(dag, tok);
      const auto it = env_.find(tok.text);
      if (it == env_.end())
        throw Error(tok.loc, "use of undefined value '" + tok.text +
                                 "' (declare it with 'input'?)");
      return it->second;
    }
    throw Error(tok.loc, "expected expression, got " + tok.describe());
  }
  NodeId parseIntrinsic(BlockDag& dag, const Token& nameTok) {
    const auto op = opFromName(nameTok.text);
    if (!op || isLeafOp(*op))
      throw Error(nameTok.loc, "unknown intrinsic '" + nameTok.text + "'");
    expectPunct("(");
    std::vector<NodeId> args;
    if (!peek().isPunct(")")) {
      do {
        args.push_back(parseExpr(dag));
      } while (tryConsume(","));
    }
    expectPunct(")");
    if (static_cast<int>(args.size()) != opArity(*op))
      throw Error(nameTok.loc,
                  "intrinsic '" + nameTok.text + "' expects " +
                      std::to_string(opArity(*op)) + " arguments, got " +
                      std::to_string(args.size()));
    return dag.addOp(*op, std::move(args));
  }

  // --- token helpers over the pre-expanded vector ----------------------
  // tokens_ never changes after construction, so the references these
  // hand out stay valid for the parser's lifetime.
  const Token& peek() const {
    return tokens_[std::min(pos_, tokens_.size() - 1)];
  }
  const Token& next() {
    const Token& tok = peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return tok;
  }
  bool tryConsume(std::string_view punct) {
    if (peek().isPunct(punct)) {
      next();
      return true;
    }
    return false;
  }
  bool tryConsumeIdent(std::string_view name) {
    if (peek().isIdent(name)) {
      next();
      return true;
    }
    return false;
  }
  const Token& expectPunct(std::string_view punct) {
    const Token& tok = next();
    if (!tok.isPunct(punct))
      throw Error(tok.loc, "expected '" + std::string(punct) + "', got " +
                               tok.describe());
    return tok;
  }
  const Token& expectIdent() {
    const Token& tok = next();
    if (!tok.is(Token::Kind::kIdent))
      throw Error(tok.loc, "expected identifier, got " + tok.describe());
    return tok;
  }
  void expectIdentKeyword(std::string_view keyword) {
    const Token& tok = next();
    if (!tok.isIdent(keyword))
      throw Error(tok.loc, "expected '" + std::string(keyword) + "', got " +
                               tok.describe());
  }

  void recordDiag(Diagnostic d) {
    if (diags_.size() < kMaxDiagnostics) diags_.push_back(std::move(d));
  }
  void recordDiag(SourceLoc loc, std::string message) {
    recordDiag(Diagnostic{loc, std::move(message)});
  }

  const std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string sourceName_;
  std::vector<Diagnostic> diags_;
  std::map<std::string, NodeId> env_;
  std::set<std::string> declaredOutputs_;
};

}  // namespace

Program parseProgram(std::string_view source, const std::string& programName) {
  std::vector<Token> tokens;
  try {
    tokens = expandRepeats(lexAll(source));
  } catch (const Error& e) {
    // Lexer / repeat-expansion errors end the token stream, so there is
    // exactly one of them — still reported through the ParseError channel
    // for a uniform file:line:col diagnostic format.
    throw ParseError(programName, {toDiagnostic(e)});
  }
  BlockParser parser(std::move(tokens), programName);
  return parser.parse(programName);
}

BlockDag parseBlock(std::string_view source) {
  Program program = parseProgram(source, "single");
  if (program.numBlocks() != 1)
    throw Error("expected exactly one block, got " +
                std::to_string(program.numBlocks()));
  return program.block(0);
}

BlockDag loadBlock(const std::string& name) {
  return parseBlock(readFile(blockPath(name)));
}

}  // namespace aviv
