// FailPoints — a process-wide fault-injection registry. Production code
// marks recoverable failure sites (`cache-write`, `avivd-dispatch`, ...);
// tests and the CI fault-injection job activate them to prove the recovery
// paths actually recover.
//
// Activation spec grammar (comma-separated):
//
//   name[:prob[:count]]
//
//   prob   — firing probability in [0, 1], default 1 (always). Draws are
//            deterministic: a counted hash of (seed, site, hit index), so a
//            fixed seed reproduces the exact failure schedule.
//   count  — maximum number of fires, default unlimited. Once exhausted the
//            site never fires again (lets a test inject exactly N faults).
//
// Sources, in precedence order:
//   * FailPoints::instance().configure(spec, seed) — tests, --failpoints
//   * AVIV_FAILPOINTS / AVIV_FAILPOINT_SEED environment variables — read
//     once, lazily, at first instance() call (the CI fault job).
//
// The inactive fast path is one relaxed atomic load, so sites are free to
// sit on hot paths. All methods are thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace aviv {

class FailPoints {
 public:
  static FailPoints& instance();

  // Replaces the active configuration with `spec` (see grammar above).
  // Malformed entries are skipped — fault injection must never be the
  // thing that crashes the process. Empty spec deactivates everything.
  void configure(const std::string& spec, uint64_t seed = 0);
  void clear() { configure(""); }

  // True when the named site should fail on this hit. Counts the fire.
  [[nodiscard]] bool shouldFail(const char* site);

  // Throws TransientError("fail point '<site>' fired") when the site
  // should fail; the standard way to instrument an injection site.
  void maybeThrow(const char* site);

  // Crash-class action: when the site fires, the process dies (or hangs)
  // the way real covering bugs kill a compile worker — a SIGSEGV, an
  // abort(), memory growth until the rlimit blocks it, or a wedged spin.
  // Only ever placed on code paths that run inside a sandboxed worker
  // process (src/proc) or a replay child: firing one in the supervisor
  // would defeat the isolation it exists to test. kHang spins until an
  // external SIGKILL, which is exactly what the supervisor's hard
  // per-request deadline must handle.
  enum class CrashAction { kSegv, kAbort, kOom, kHang };
  void maybeCrash(const char* site, CrashAction action);

  // Total fires of `site` since the last configure (for tests).
  [[nodiscard]] int64_t fires(const char* site) const;

  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }

  struct Point {
    double prob = 1.0;
    int64_t remaining = -1;  // -1 = unlimited
    int64_t hits = 0;        // draws made (indexes the deterministic hash)
    int64_t fires = 0;
  };
  // The whole registry: every site's spec and counts, and the draw seed.
  struct State {
    std::map<std::string, Point> points;
    uint64_t seed = 0;
  };
  [[nodiscard]] State save() const;
  void restore(State state);
  // The sites that fired since `before` was saved, as an always-fire spec
  // ("a,b"; "" when none fired): the spec that makes a replay fire them.
  [[nodiscard]] std::string firedSince(const State& before) const;

 private:
  FailPoints();

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  State state_;
};

// A nested run under its own spec (a bundle replay, a minimization):
// configures `spec` and, on scope exit, restores the registry exactly as
// saved, so the enclosing run's schedule and counts carry on untouched.
class ScopedFailPoints {
 public:
  explicit ScopedFailPoints(const std::string& spec)
      : saved_(FailPoints::instance().save()) {
    FailPoints::instance().configure(spec);
  }
  ~ScopedFailPoints() { FailPoints::instance().restore(std::move(saved_)); }

 private:
  FailPoints::State saved_;
};

}  // namespace aviv
