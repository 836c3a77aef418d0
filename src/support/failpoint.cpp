#include "support/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>

#include "support/error.h"
#include "support/strings.h"

namespace aviv {

namespace {

// splitmix64 — deterministic per-hit probability draws.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t hashSite(const std::string& site) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  return h;
}

}  // namespace

FailPoints& FailPoints::instance() {
  static FailPoints registry;
  return registry;
}

FailPoints::FailPoints() {
  const char* spec = std::getenv("AVIV_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return;
  uint64_t seed = 0;
  if (const char* seedEnv = std::getenv("AVIV_FAILPOINT_SEED");
      seedEnv != nullptr && *seedEnv != '\0')
    seed = std::strtoull(seedEnv, nullptr, 10);
  configure(spec, seed);
}

void FailPoints::configure(const std::string& spec, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = {{}, seed};
  for (const std::string& item : split(spec, ',')) {
    const std::string entry{trim(item)};
    if (entry.empty()) continue;
    const auto parts = split(entry, ':');
    Point point;
    bool ok = !parts.empty() && !parts[0].empty() && parts.size() <= 3;
    if (ok && parts.size() >= 2) {
      char* end = nullptr;
      point.prob = std::strtod(parts[1].c_str(), &end);
      ok = end != nullptr && *end == '\0' && point.prob >= 0.0 &&
           point.prob <= 1.0;
    }
    if (ok && parts.size() == 3) {
      char* end = nullptr;
      point.remaining = std::strtoll(parts[2].c_str(), &end, 10);
      ok = end != nullptr && *end == '\0' && point.remaining >= 0;
    }
    // A bad entry must never crash the process it was meant to test.
    if (!ok) continue;
    state_.points[parts[0]] = point;
  }
  active_.store(!state_.points.empty(), std::memory_order_relaxed);
}

bool FailPoints::shouldFail(const char* site) {
  if (!active_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.points.find(site);
  if (it == state_.points.end()) return false;
  Point& point = it->second;
  if (point.remaining == 0) return false;
  const auto hit = static_cast<uint64_t>(point.hits++);
  if (point.prob < 1.0) {
    const uint64_t draw = mix64(state_.seed ^ hashSite(it->first) ^ hit);
    const double u =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    if (u >= point.prob) return false;
  }
  if (point.remaining > 0) --point.remaining;
  ++point.fires;
  return true;
}

void FailPoints::maybeThrow(const char* site) {
  if (shouldFail(site))
    throw TransientError(std::string("fail point '") + site + "' fired");
}

void FailPoints::maybeCrash(const char* site, CrashAction action) {
  if (!shouldFail(site)) return;
  switch (action) {
    case CrashAction::kSegv: {
      // Write through a volatile null pointer the optimizer cannot elide.
      volatile int* target = nullptr;
      *target = 42;
      break;
    }
    case CrashAction::kAbort:
      std::abort();
    case CrashAction::kOom: {
      // Grow until allocation fails — with a worker RLIMIT_AS cap that is
      // the cap, without one it is the machine — then die the way the
      // kernel OOM-killer would leave the process: abruptly. Memory is
      // touched so the pages are really committed, and deliberately
      // leaked: the process is about to die.
      for (;;) {
        constexpr size_t kChunk = 16u << 20;
        char* chunk = new (std::nothrow) char[kChunk];
        if (chunk == nullptr) std::abort();
        for (size_t i = 0; i < kChunk; i += 4096) chunk[i] = 1;
      }
    }
    case CrashAction::kHang:
      // Wedged worker: alive (heartbeats would need a live thread, but the
      // spinner never reaches the responder), unkillable by anything but a
      // real signal. sleep keeps a 1-CPU CI box responsive.
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

int64_t FailPoints::fires(const char* site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.points.find(site);
  return it == state_.points.end() ? 0 : it->second.fires;
}

FailPoints::State FailPoints::save() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void FailPoints::restore(State state) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = std::move(state);
  active_.store(!state_.points.empty(), std::memory_order_relaxed);
}

std::string FailPoints::firedSince(const State& before) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string spec;
  for (const auto& [site, point] : state_.points) {
    const auto old = before.points.find(site);
    if (point.fires > (old == before.points.end() ? 0 : old->second.fires))
      spec += (spec.empty() ? "" : ",") + site;
  }
  return spec;
}

}  // namespace aviv
