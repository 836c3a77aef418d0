// Flight-recorder tracer — per-thread ring buffers of timestamped events,
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing via `avivc --trace-out t.json`).
//
// Design goals, in order:
//   1. Disabled cost ~ one branch. Every emit path starts with a relaxed
//      atomic load of the global enable flag; when tracing is off nothing
//      else runs — no allocation, no lock, no clock read. The acceptance
//      bench (BM_TraceEventOverhead) pins this down.
//   2. Flight-recorder semantics. Each thread owns a fixed-capacity ring;
//      when it fills, the oldest events are overwritten (and counted), so a
//      long run retains the recent past instead of growing without bound.
//      On an InternalError or verification failure the driver dumps the
//      retained tail into the repro bundle (writeFlightRecord).
//   3. Contention-free emission. Threads never share a ring, so emitters
//      never contend with each other. A per-ring mutex orders the rare
//      drain (export, flight-record dump) against its owner thread; for the
//      owner that lock is uncontended outside drains.
//
// Event model: complete spans ('X': start + duration, recorded at scope
// exit by trace::Span), instants ('i'), and counter samples ('C', one
// numeric series per name — Perfetto draws these as graphs, used for the
// best-cost-over-time trajectory). Names are copied into a fixed in-event
// buffer (truncated if long); categories and argument keys must be
// string literals (or otherwise outlive the tracer).
//
// This header is dependency-free (std only) so the lowest layers —
// support/telemetry.h's PhaseScope, support/deadline.h — can emit events
// without a layering cycle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aviv::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// The one check every call site performs before doing any tracing work.
[[nodiscard]] inline bool on() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// One recorded event. Fixed-size and trivially copyable so ring slots are
// overwritten in place with no allocation.
struct Event {
  static constexpr size_t kNameCapacity = 48;
  static constexpr int kMaxArgs = 3;

  int64_t tsNanos = 0;   // since the tracer epoch (steady clock)
  int64_t durNanos = 0;  // 'X' events only
  uint32_t tid = 0;      // stable per-thread ordinal, assigned on first emit
  char ph = 'i';         // 'X' complete, 'i' instant, 'C' counter
  const char* cat = "aviv";        // string literal
  char name[kNameCapacity] = {};   // NUL-terminated, truncated copy
  int numArgs = 0;
  const char* argName[kMaxArgs] = {};  // string literals
  int64_t argVal[kMaxArgs] = {};

  void setName(std::string_view a, std::string_view b = {});
};

class Tracer {
 public:
  static constexpr size_t kDefaultEventsPerThread = 1 << 14;

  static Tracer& instance();

  // Turns tracing on. Rings are created lazily, one per emitting thread,
  // with `eventsPerThread` slots (existing rings are resized on their next
  // emit). Safe to call at any time; idempotent.
  void enable(size_t eventsPerThread = kDefaultEventsPerThread);
  // Turns tracing off (retained events stay exportable).
  void disable();
  // Drops every retained event and resets the drop counters; the enable
  // state is unchanged. For tests and benches.
  void clear();

  // Nanoseconds since the tracer epoch (first instance() call).
  [[nodiscard]] int64_t nowNanos() const;

  // Record an event into the calling thread's ring. No-op when disabled.
  void emit(Event event);

  // All retained events from every thread, merged and sorted by timestamp,
  // as a Chrome trace-event JSON object:
  //   {"traceEvents": [...], "displayTimeUnit": "ms",
  //    "otherData": {"overwritten": N}}
  // Safe to call concurrently with emission.
  [[nodiscard]] std::string exportJson() const;

  // exportJson restricted to the `lastN` most recent events across all
  // threads — the flight-recorder tail.
  [[nodiscard]] std::string exportJsonLastN(size_t lastN) const;

  // Best-effort flight-record dump: writes exportJsonLastN(lastN) to
  // `path`. Returns false (never throws) when the write fails or tracing
  // never recorded anything.
  bool writeFlightRecord(const std::string& path,
                         size_t lastN = 2048) const noexcept;

  // Events overwritten by ring wrap-around since the last clear().
  [[nodiscard]] int64_t overwritten() const;
  // Retained (exportable) event count right now.
  [[nodiscard]] size_t retained() const;

 private:
  struct Ring {
    std::mutex mu;
    std::vector<Event> slots;  // capacity fixed between resizes
    uint64_t next = 0;         // total events ever emitted to this ring
    uint32_t tid = 0;
  };

  Tracer();
  Ring& ringForThisThread();
  void collect(std::vector<Event>* out) const;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<size_t> eventsPerThread_{kDefaultEventsPerThread};
  mutable std::mutex registryMu_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::atomic<uint32_t> nextTid_{1};
  std::atomic<int64_t> overwritten_{0};
};

// --- convenience emitters -------------------------------------------------
// All are single-branch no-ops when tracing is off. Dynamic name parts are
// passed as (prefix, rest) string_views and concatenated into the event's
// fixed buffer — no allocation either way.

void instant(const char* cat, std::string_view name, std::string_view rest = {},
             const char* k0 = nullptr, int64_t v0 = 0,
             const char* k1 = nullptr, int64_t v1 = 0,
             const char* k2 = nullptr, int64_t v2 = 0);

// One sample of the numeric series `name` (Chrome 'C' counter event).
void counter(const char* cat, std::string_view name, const char* key,
             int64_t value);

// Like counter, but with an explicit timestamp (nanoseconds since the
// tracer epoch) — used to replay the best-cost trajectory recorded inside
// the covering reduction.
void counterAt(const char* cat, std::string_view name, const char* key,
               int64_t value, int64_t tsNanos);

// RAII complete-span recorder: captures the start time at construction and
// emits one 'X' event at destruction. Up to kMaxArgs integer args may be
// attached before the scope closes.
class Span {
 public:
  Span(const char* cat, std::string_view name, std::string_view rest = {}) {
    if (!on()) return;
    active_ = true;
    event_.cat = cat;
    event_.ph = 'X';
    event_.setName(name, rest);
    event_.tsNanos = Tracer::instance().nowNanos();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!active_ || !on()) return;
    event_.durNanos = Tracer::instance().nowNanos() - event_.tsNanos;
    Tracer::instance().emit(event_);
  }

  // Drops the span: nothing is emitted at scope exit.
  void cancel() { active_ = false; }

  void arg(const char* key, int64_t value) {
    if (!active_ || event_.numArgs >= Event::kMaxArgs) return;
    event_.argName[event_.numArgs] = key;
    event_.argVal[event_.numArgs] = value;
    ++event_.numArgs;
  }

 private:
  bool active_ = false;
  Event event_;
};

}  // namespace aviv::trace
