// The serving stack's one transient-fault retry policy. A TransientError
// (support/error.h — in practice a fired FailPoints::maybeThrow site)
// re-runs the operation up to kTransientRetries times, sleeping 1 ms before
// the first retry and 2 ms before the second; the last failure propagates.
// Any other exception propagates at once. Users: the result cache's disk
// I/O (counted as `ioRetries`) and executeRequest's whole-request dispatch
// (counted as `dispatchRetries`, reported as " retries=N").
#pragma once

#include <chrono>
#include <thread>

#include "support/error.h"

namespace aviv {

inline constexpr int kTransientRetries = 2;

// Returns fn()'s result; `onRetry()` runs before each retry.
template <typename Fn, typename OnRetry>
decltype(auto) retryTransient(Fn&& fn, OnRetry&& onRetry) {
  for (int attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const TransientError&) {
      if (attempt >= kTransientRetries) throw;
      onRetry();
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
  }
}

}  // namespace aviv
