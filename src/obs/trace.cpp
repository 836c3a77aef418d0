#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <utility>

namespace aviv::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void Event::setName(std::string_view a, std::string_view b) {
  // string_view::copy, unlike memcpy, is defined for an empty view whose
  // data() is null.
  const size_t n = a.copy(name, kNameCapacity - 1);
  const size_t m = b.copy(name + n, kNameCapacity - 1 - n);
  name[n + m] = '\0';
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // never destroyed: emitting threads
                                         // may outlive static teardown
  return *tracer;
}

void Tracer::enable(size_t eventsPerThread) {
  if (eventsPerThread == 0) eventsPerThread = 1;
  eventsPerThread_.store(eventsPerThread, std::memory_order_relaxed);
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> registryLock(registryMu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->next = 0;
  }
  overwritten_.store(0, std::memory_order_relaxed);
}

int64_t Tracer::nowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Ring& Tracer::ringForThisThread() {
  // The thread-local handle shares ownership with the registry, so rings of
  // exited threads stay exportable and a clear() never leaves a dangling
  // pointer behind.
  thread_local std::shared_ptr<Ring> tlsRing;
  if (tlsRing == nullptr) {
    auto ring = std::make_shared<Ring>();
    ring->tid = nextTid_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(registryMu_);
      rings_.push_back(ring);
    }
    tlsRing = std::move(ring);
  }
  return *tlsRing;
}

void Tracer::emit(Event event) {
  if (!on()) return;
  Ring& ring = ringForThisThread();
  const size_t capacity = eventsPerThread_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.slots.size() != capacity) {
    // Capacity changed since this ring was created (enable() with a new
    // size): start the ring over rather than remapping retained slots.
    ring.slots.assign(capacity, Event{});
    ring.next = 0;
  }
  if (ring.next >= ring.slots.size())
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  event.tid = ring.tid;
  if (event.tsNanos == 0 && event.ph != 'X') event.tsNanos = nowNanos();
  ring.slots[ring.next % ring.slots.size()] = event;
  ++ring.next;
}

void Tracer::collect(std::vector<Event>* out) const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(registryMu_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    const size_t size = ring->slots.size();
    if (size == 0) continue;
    const uint64_t first = ring->next > size ? ring->next - size : 0;
    for (uint64_t i = first; i < ring->next; ++i)
      out->push_back(ring->slots[i % size]);
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const Event& a, const Event& b) {
                     return a.tsNanos < b.tsNanos;
                   });
}

namespace {

void appendJsonString(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void appendMicros(std::string& out, int64_t nanos) {
  // Chrome trace timestamps are microseconds; keep nanosecond precision as
  // a three-decimal fraction.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(nanos / 1000),
                static_cast<long long>(nanos % 1000));
  out += buf;
}

void appendEvent(std::string& out, const Event& e) {
  out += "{\"name\":";
  appendJsonString(out, e.name);
  out += ",\"cat\":";
  appendJsonString(out, e.cat);
  out += ",\"ph\":\"";
  out += e.ph;
  out += "\",\"ts\":";
  appendMicros(out, e.tsNanos);
  if (e.ph == 'X') {
    out += ",\"dur\":";
    appendMicros(out, e.durNanos);
  }
  out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
  if (e.numArgs > 0 || e.ph == 'C') {
    out += ",\"args\":{";
    for (int i = 0; i < e.numArgs; ++i) {
      if (i > 0) out += ",";
      appendJsonString(out, e.argName[i]);
      out += ":" + std::to_string(e.argVal[i]);
    }
    out += "}";
  }
  out += "}";
}

std::string renderTrace(const std::vector<Event>& events,
                        int64_t overwritten) {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",\n";
    appendEvent(out, events[i]);
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"overwritten\":" +
         std::to_string(overwritten) + "}}\n";
  return out;
}

}  // namespace

std::string Tracer::exportJson() const {
  std::vector<Event> events;
  collect(&events);
  return renderTrace(events, overwritten());
}

std::string Tracer::exportJsonLastN(size_t lastN) const {
  std::vector<Event> events;
  collect(&events);
  if (events.size() > lastN)
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(events.size() - lastN));
  return renderTrace(events, overwritten());
}

bool Tracer::writeFlightRecord(const std::string& path,
                               size_t lastN) const noexcept {
  try {
    if (retained() == 0) return false;
    const std::string json = exportJsonLastN(lastN);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return written == json.size();
  } catch (...) {
    return false;
  }
}

int64_t Tracer::overwritten() const {
  return overwritten_.load(std::memory_order_relaxed);
}

size_t Tracer::retained() const {
  size_t total = 0;
  std::lock_guard<std::mutex> registryLock(registryMu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += static_cast<size_t>(
        std::min<uint64_t>(ring->next, ring->slots.size()));
  }
  return total;
}

void instant(const char* cat, std::string_view name, std::string_view rest,
             const char* k0, int64_t v0, const char* k1, int64_t v1,
             const char* k2, int64_t v2) {
  if (!on()) return;
  Event e;
  e.ph = 'i';
  e.cat = cat;
  e.setName(name, rest);
  for (const auto& [key, value] :
       {std::pair{k0, v0}, std::pair{k1, v1}, std::pair{k2, v2}}) {
    if (key == nullptr) continue;
    e.argName[e.numArgs] = key;
    e.argVal[e.numArgs] = value;
    ++e.numArgs;
  }
  Tracer::instance().emit(e);
}

void counter(const char* cat, std::string_view name, const char* key,
             int64_t value) {
  counterAt(cat, name, key, value, 0);
}

void counterAt(const char* cat, std::string_view name, const char* key,
               int64_t value, int64_t tsNanos) {
  if (!on()) return;
  Event e;
  e.ph = 'C';
  e.cat = cat;
  e.setName(name);
  e.tsNanos = tsNanos;
  e.argName[0] = key;
  e.argVal[0] = value;
  e.numArgs = 1;
  Tracer::instance().emit(e);
}

}  // namespace aviv::trace
