// EventLoop — the readiness core of the compile server: a single-threaded
// epoll dispatcher (the server targets Linux). Callbacks are registered per
// fd with a read/write interest mask; runOnce() waits for readiness and
// dispatches.
//
// Thread model: add/modify/remove/runOnce belong to the loop thread.
// wakeup() is the one cross-thread (and async-signal-safe) entry point — a
// byte written to an internal pipe that makes the current or next runOnce
// return promptly; worker threads use it to hand completions back, and
// signal handlers use it to cut short the poll timeout.
//
// Re-entrancy: a callback may add/modify/remove any fd, including its own.
// Dispatch snapshots the ready set first and re-validates each entry (fd
// still registered, same registration generation) before invoking, so a
// callback that closes a neighbour's fd — or closes its own and lets the
// OS recycle the number — cannot cause a stale dispatch.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/socket.h"

namespace aviv::net {

class EventLoop {
 public:
  // Interest / readiness bits. Errors and hangups are folded into kRead:
  // the callback's read attempt observes the EOF/error and handles it.
  static constexpr uint32_t kRead = 1;
  static constexpr uint32_t kWrite = 2;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  using Callback = std::function<void(uint32_t ready)>;

  void add(int fd, uint32_t interest, Callback callback);
  void modify(int fd, uint32_t interest);
  void remove(int fd);
  [[nodiscard]] bool watching(int fd) const {
    return entries_.find(fd) != entries_.end();
  }
  [[nodiscard]] size_t size() const { return entries_.size(); }

  // Waits up to timeoutMs (-1 = forever) and dispatches ready callbacks.
  // Returns the number of callbacks invoked (0 on timeout; a wakeup counts
  // the wake pipe's own drain callback).
  int runOnce(int timeoutMs);

  // Thread-safe and async-signal-safe: nudges runOnce awake.
  void wakeup();
  // The raw write end of the wake pipe, for signal handlers that want to
  // write() it directly.
  [[nodiscard]] int wakeupFd() const { return wakePipe_[1].get(); }

 private:
  struct Entry {
    uint32_t interest = 0;
    uint64_t generation = 0;
    Callback callback;
  };

  void control(int op, int fd, uint32_t interest);
  void drainWakePipe();

  Fd epollFd_;
  Fd wakePipe_[2];  // [0] read end (watched), [1] write end
  std::unordered_map<int, Entry> entries_;
  uint64_t nextGeneration_ = 1;
};

}  // namespace aviv::net
