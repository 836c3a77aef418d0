// trace_report — offline summarizer for flight-recorder traces (and metrics
// dumps) produced by `avivc --trace-out` / `avivd --trace-out`.
//
//   trace_report <trace.json> [--validate] [--top N] [--metrics m.json]
//
// Default report:
//   * trace overview: event counts by phase type, wall span, drop counter
//   * top phases by SELF time (span duration minus nested spans on the same
//     thread) — where the compile actually spent its time
//   * covering summary: candidate coverings, how many the lower bound cut,
//     spills
//   * per-block breakdown: one section per "compile:<block>" span with the
//     phase spans nested inside it (the block's critical path, since block
//     compiles are single-threaded inside the span)
//
// --validate additionally checks event well-formedness and exits nonzero on
// violation: the file must parse as Chrome trace-event JSON, every 'B' must
// have a matching 'E' on the same thread (our tracer only emits complete
// 'X' events, which must carry a non-negative dur), and timestamps must be
// finite. The trace-schema ctest drives this against a fresh avivc trace.
//
// --metrics <file> renders the histogram tables from a `--metrics-json`
// dump: count/min/p50/p90/p99/max per histogram plus the counters.
//
// The JSON reader below is a deliberately small recursive-descent parser
// for machine-generated JSON (full value grammar, UTF-8 passthrough); it
// keeps the tool dependency-free.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/cli.h"
#include "support/error.h"
#include "support/io.h"

namespace {

using aviv::Error;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;

  [[nodiscard]] bool isObject() const { return kind == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind == Kind::kArray; }
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
  [[nodiscard]] double num(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] std::string str(const std::string& fallback = "") const {
    return kind == Kind::kString ? text : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  JsonValue parseValue() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.text = parseString();
      return v;
    }
    if (c == 't' || c == 'f') return parseKeyword(c == 't');
    if (c == 'n') {
      expectWord("null");
      return JsonValue{};
    }
    return parseNumber();
  }

  JsonValue parseObject() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.object = std::make_shared<JsonObject>();
    ++pos_;  // '{'
    skipWs();
    if (consumeIf('}')) return v;
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      if (!consumeIf(':')) fail("expected ':' in object");
      (*v.object)[std::move(key)] = parseValue();
      skipWs();
      if (consumeIf(',')) continue;
      if (consumeIf('}')) return v;
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parseArray() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.array = std::make_shared<JsonArray>();
    ++pos_;  // '['
    skipWs();
    if (consumeIf(']')) return v;
    while (true) {
      v.array->push_back(parseValue());
      skipWs();
      if (consumeIf(',')) continue;
      if (consumeIf(']')) return v;
      fail("expected ',' or ']' in array");
    }
  }

  JsonValue parseKeyword(bool isTrue) {
    expectWord(isTrue ? "true" : "false");
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = isTrue;
    return v;
  }

  JsonValue parseNumber() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected a JSON value");
    pos_ += static_cast<size_t>(end - begin);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string parseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              const int digit = h >= '0' && h <= '9'   ? h - '0'
                                : h >= 'a' && h <= 'f' ? h - 'a' + 10
                                : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                                       : -1;
              if (digit < 0) fail("bad \\u escape");
              code = code * 16 + static_cast<unsigned>(digit);
            }
            // Control-plane strings only; fold BMP escapes to '?' beyond
            // Latin-1 rather than implementing UTF-16 surrogates.
            c = code <= 0xff ? static_cast<char>(code) : '?';
            break;
          }
          default: c = esc;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  void expectWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consumeIf(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON at offset " + std::to_string(pos_) + ": " + what);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Trace model.

struct TraceEvent {
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds, 'X' only
  char ph = 'i';
  int64_t tid = 0;
  std::string name;
  std::string cat;
};

struct Trace {
  std::vector<TraceEvent> events;
  int64_t overwritten = 0;
};

Trace loadTrace(const std::string& path) {
  const JsonValue root = JsonParser(aviv::readFile(path)).parse();
  const JsonValue* eventsValue = nullptr;
  Trace trace;
  if (root.isArray()) {
    eventsValue = &root;  // bare-array Chrome trace form
  } else if (root.isObject()) {
    eventsValue = root.find("traceEvents");
    if (const JsonValue* other = root.find("otherData"))
      if (const JsonValue* overwritten = other->find("overwritten"))
        trace.overwritten = static_cast<int64_t>(overwritten->num());
  }
  if (eventsValue == nullptr || !eventsValue->isArray())
    throw Error(path + ": not a Chrome trace (no traceEvents array)");
  trace.events.reserve(eventsValue->array->size());
  for (const JsonValue& e : *eventsValue->array) {
    if (!e.isObject()) throw Error(path + ": non-object trace event");
    TraceEvent event;
    if (const JsonValue* v = e.find("ts")) event.ts = v->num();
    if (const JsonValue* v = e.find("dur")) event.dur = v->num();
    if (const JsonValue* v = e.find("tid"))
      event.tid = static_cast<int64_t>(v->num());
    if (const JsonValue* v = e.find("ph")) {
      const std::string ph = v->str("i");
      event.ph = ph.empty() ? 'i' : ph[0];
    }
    if (const JsonValue* v = e.find("name")) event.name = v->str();
    if (const JsonValue* v = e.find("cat")) event.cat = v->str();
    trace.events.push_back(std::move(event));
  }
  return trace;
}

// Schema validation: parseability was established by loadTrace; here we
// check event pairing. Returns the number of violations (0 = valid).
int validateTrace(const Trace& trace) {
  int violations = 0;
  auto complain = [&](const std::string& what) {
    std::fprintf(stderr, "trace_report: INVALID: %s\n", what.c_str());
    ++violations;
  };
  // Per-tid stack of open 'B' events.
  std::map<int64_t, std::vector<std::string>> open;
  for (const TraceEvent& e : trace.events) {
    if (!std::isfinite(e.ts) || !std::isfinite(e.dur))
      complain("non-finite timestamp on '" + e.name + "'");
    switch (e.ph) {
      case 'B': open[e.tid].push_back(e.name); break;
      case 'E': {
        auto& stack = open[e.tid];
        if (stack.empty()) {
          complain("'E' without matching 'B' on tid " +
                   std::to_string(e.tid));
        } else {
          // Chrome pairs B/E strictly LIFO per thread; a name mismatch
          // means interleaved spans the format cannot represent.
          if (!e.name.empty() && stack.back() != e.name)
            complain("'E' name '" + e.name + "' does not match open '" +
                     stack.back() + "' on tid " + std::to_string(e.tid));
          stack.pop_back();
        }
        break;
      }
      case 'X':
        if (e.dur < 0.0) complain("negative dur on '" + e.name + "'");
        break;
      case 'i':
      case 'I':
      case 'C':
        break;
      default:
        complain(std::string("unknown phase '") + e.ph + "' on '" + e.name +
                 "'");
    }
  }
  for (const auto& [tid, stack] : open)
    for (const std::string& name : stack)
      complain("'B' \"" + name + "\" never closed on tid " +
               std::to_string(tid));
  return violations;
}

// Self-time per span name: duration minus directly nested spans on the same
// thread. Nesting is recovered from [ts, ts+dur) containment, which is
// exact for single-threaded scopes (ours are RAII).
struct PhaseAgg {
  double totalUs = 0.0;
  double selfUs = 0.0;
  int64_t count = 0;
};

std::map<std::string, PhaseAgg> aggregateSelfTimes(const Trace& trace) {
  struct Span {
    double ts, dur;
    std::string name;
  };
  std::map<int64_t, std::vector<Span>> byTid;
  for (const TraceEvent& e : trace.events)
    if (e.ph == 'X') byTid[e.tid].push_back({e.ts, e.dur, e.name});

  std::map<std::string, PhaseAgg> agg;
  for (auto& [tid, spans] : byTid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       return a.dur > b.dur;  // parents before children
                     });
    // Sweep with an enclosing-span stack; each span's duration is charged
    // against its nearest enclosing span's self time.
    std::vector<const Span*> stack;
    for (const Span& span : spans) {
      while (!stack.empty() &&
             span.ts >= stack.back()->ts + stack.back()->dur)
        stack.pop_back();
      PhaseAgg& a = agg[span.name];
      a.totalUs += span.dur;
      a.selfUs += span.dur;
      a.count += 1;
      if (!stack.empty()) agg[stack.back()->name].selfUs -= span.dur;
      stack.push_back(&span);
    }
  }
  return agg;
}

void printTimeUs(double us) {
  if (us >= 1e6)
    std::printf("%9.3fs ", us / 1e6);
  else if (us >= 1e3)
    std::printf("%8.2fms ", us / 1e3);
  else
    std::printf("%8.1fus ", us);
}

void reportTopPhases(const Trace& trace, size_t top) {
  const auto agg = aggregateSelfTimes(trace);
  std::vector<std::pair<std::string, PhaseAgg>> rows(agg.begin(), agg.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.selfUs > b.second.selfUs;
                   });
  double totalSelf = 0.0;
  for (const auto& [name, a] : rows) totalSelf += a.selfUs;

  std::printf("top spans by self time:\n");
  std::printf("  %10s %10s %7s %6s  %s\n", "self", "total", "count", "self%",
              "name");
  size_t shown = 0;
  for (const auto& [name, a] : rows) {
    if (shown++ >= top) break;
    std::printf("  ");
    printTimeUs(a.selfUs);
    printTimeUs(a.totalUs);
    std::printf("%7lld %5.1f%%  %s\n", static_cast<long long>(a.count),
                totalSelf > 0.0 ? 100.0 * a.selfUs / totalSelf : 0.0,
                name.c_str());
  }
  if (rows.size() > shown)
    std::printf("  ... %zu more span names\n", rows.size() - shown);
}

// Covering-search summary: candidate coverings started ("cover.candidate"
// spans), how many the cross-candidate lower bound cut ("cover.cut"
// instants), and spills inserted ("cover.spill" instants).
void reportCovering(const Trace& trace) {
  size_t candidates = 0, cut = 0, spills = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.ph == 'X' && e.name == "cover.candidate") ++candidates;
    if (e.ph == 'i' && e.name == "cover.cut") ++cut;
    if (e.ph == 'i' && e.name == "cover.spill") ++spills;
  }
  if (candidates == 0) return;
  std::printf("\ncovering: %zu candidates, %zu cut by the lower bound "
              "(%.1f%%), %zu spills\n",
              candidates, cut, 100.0 * static_cast<double>(cut) /
                                   static_cast<double>(candidates),
              spills);
}

// Per-block sections: each "compile:<block>" span with the phase spans that
// ran inside its window on its thread. Block compiles are single-threaded
// within the span (candidate-covering fan-out emits under the same tel
// node but its spans carry their own tids and roll up under "cover").
void reportBlocks(const Trace& trace) {
  struct Block {
    double ts, dur;
    int64_t tid;
    std::string name;
    std::map<std::string, PhaseAgg> phases;
  };
  std::vector<Block> blocks;
  for (const TraceEvent& e : trace.events)
    if (e.ph == 'X' && e.name.rfind("compile:", 0) == 0)
      blocks.push_back({e.ts, e.dur, e.tid, e.name.substr(8), {}});
  if (blocks.empty()) return;
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const Block& a, const Block& b) { return a.ts < b.ts; });

  for (const TraceEvent& e : trace.events) {
    if (e.ph != 'X' || e.cat != "phase") continue;
    for (Block& block : blocks) {
      if (e.tid == block.tid && e.ts >= block.ts &&
          e.ts + e.dur <= block.ts + block.dur + 1e-3) {
        PhaseAgg& a = block.phases[e.name];
        a.totalUs += e.dur;
        a.count += 1;
        break;
      }
    }
  }

  std::printf("\nper-block breakdown (%zu compile spans):\n", blocks.size());
  for (const Block& block : blocks) {
    std::printf("  %s: ", block.name.c_str());
    printTimeUs(block.dur);
    std::printf("\n");
    std::vector<std::pair<std::string, PhaseAgg>> rows(block.phases.begin(),
                                                       block.phases.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.totalUs > b.second.totalUs;
                     });
    for (const auto& [name, a] : rows) {
      std::printf("    ");
      printTimeUs(a.totalUs);
      std::printf(" %5.1f%%  %s\n",
                  block.dur > 0.0 ? 100.0 * a.totalUs / block.dur : 0.0,
                  name.c_str());
    }
  }
}

void reportMetrics(const std::string& path) {
  const JsonValue root = JsonParser(aviv::readFile(path)).parse();
  std::printf("\nmetrics from %s:\n", path.c_str());
  if (const JsonValue* counters = root.find("counters");
      counters != nullptr && counters->isObject() &&
      !counters->object->empty()) {
    std::printf("  counters:\n");
    for (const auto& [name, value] : *counters->object)
      std::printf("    %-32s %12lld\n", name.c_str(),
                  static_cast<long long>(value.num()));
  }
  const JsonValue* histograms = root.find("histograms");
  if (histograms == nullptr || !histograms->isObject() ||
      histograms->object->empty())
    return;
  std::printf("  histograms:\n");
  std::printf("    %-28s %9s %9s %9s %9s %9s %9s\n", "name", "count", "min",
              "p50", "p90", "p99", "max");
  for (const auto& [name, h] : *histograms->object) {
    if (!h.isObject()) continue;
    auto field = [&](const char* key) {
      const JsonValue* v = h.find(key);
      return v != nullptr ? v->num() : 0.0;
    };
    std::printf("    %-28s %9lld %9lld %9.0f %9.0f %9.0f %9lld\n",
                name.c_str(), static_cast<long long>(field("count")),
                static_cast<long long>(field("min")), field("p50"),
                field("p90"), field("p99"),
                static_cast<long long>(field("max")));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    aviv::CliFlags flags(argc, argv);
    if (flags.positional().size() != 1)
      throw Error(
          "usage: trace_report <trace.json> [--validate] [--top N] "
          "[--metrics metrics.json]");
    const std::string tracePath = flags.positional()[0];
    const bool validate = flags.getBool("validate", false);
    const auto top = static_cast<size_t>(flags.getInt("top", 12));
    const std::string metricsPath = flags.getString("metrics", "");
    flags.finish();

    const Trace trace = loadTrace(tracePath);
    size_t counts[4] = {0, 0, 0, 0};  // X, i, C, other
    for (const TraceEvent& e : trace.events) {
      if (e.ph == 'X')
        ++counts[0];
      else if (e.ph == 'i' || e.ph == 'I')
        ++counts[1];
      else if (e.ph == 'C')
        ++counts[2];
      else
        ++counts[3];
    }
    double minTs = 0.0, maxTs = 0.0;
    if (!trace.events.empty()) {
      minTs = trace.events.front().ts;
      maxTs = minTs;
      for (const TraceEvent& e : trace.events) {
        minTs = std::min(minTs, e.ts);
        maxTs = std::max(maxTs, e.ts + (e.ph == 'X' ? e.dur : 0.0));
      }
    }
    std::printf("%s: %zu events (%zu spans, %zu instants, %zu counters"
                "%s%zu other), ",
                tracePath.c_str(), trace.events.size(), counts[0], counts[1],
                counts[2], counts[3] > 0 ? ", " : ", ", counts[3]);
    printTimeUs(maxTs - minTs);
    std::printf("wall span");
    if (trace.overwritten > 0)
      std::printf(", %lld overwritten (ring wrapped)",
                  static_cast<long long>(trace.overwritten));
    std::printf("\n\n");

    int violations = 0;
    if (validate) {
      violations = validateTrace(trace);
      std::printf("validate: %s\n\n",
                  violations == 0 ? "OK (all spans complete and paired)"
                                  : "FAILED");
    }

    reportTopPhases(trace, top);
    reportCovering(trace);
    reportBlocks(trace);
    if (!metricsPath.empty()) reportMetrics(metricsPath);
    return violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: %s\n", e.what());
    return 1;
  }
}
