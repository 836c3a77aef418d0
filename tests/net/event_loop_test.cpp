// EventLoop unit tests: the re-entrancy contract of net/event_loop.h (a
// callback may remove or re-register any fd, its own included, without a
// stale dispatch) and the cross-thread wakeup.
#include "net/event_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/socket.h"
#include "support/timer.h"

namespace aviv::net {
namespace {

using namespace std::chrono_literals;

// A pipe whose read end is readable (one byte buffered) until drained.
struct ReadyPipe {
  Fd readEnd;
  Fd writeEnd;

  ReadyPipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    readEnd = Fd(fds[0]);
    writeEnd = Fd(fds[1]);
    const char byte = 1;
    EXPECT_EQ(::write(writeEnd.get(), &byte, 1), 1);
  }
};

TEST(EventLoop, CallbackRemovingAReadyNeighbourCancelsItsDispatch) {
  EventLoop loop;
  ReadyPipe a;
  ReadyPipe b;
  const int fdA = a.readEnd.get();
  const int fdB = b.readEnd.get();
  int ranA = 0;
  int ranB = 0;
  // Both fds are ready in the same round; whichever callback runs first
  // removes the other, so the other's snapshotted readiness is dropped.
  loop.add(fdA, EventLoop::kRead, [&](uint32_t) {
    ++ranA;
    loop.remove(fdB);
  });
  loop.add(fdB, EventLoop::kRead, [&](uint32_t) {
    ++ranB;
    loop.remove(fdA);
  });

  EXPECT_EQ(loop.runOnce(1000), 1);
  EXPECT_EQ(ranA + ranB, 1) << "epoll order is unspecified, but exactly "
                               "one of the two callbacks may run";
  EXPECT_EQ(loop.size(), 2u) << "the wake pipe plus the survivor";
  EXPECT_NE(loop.watching(fdA), loop.watching(fdB));
}

TEST(EventLoop, ReRegisteredFdIsNotDispatchedWithTheStaleRegistration) {
  EventLoop loop;
  ReadyPipe pipe;
  const int fd = pipe.readEnd.get();
  int ranOld = 0;
  int ranNew = 0;
  loop.add(fd, EventLoop::kRead, [&](uint32_t) {
    ++ranOld;
    // Replace our own registration while our readiness is being
    // dispatched; the data stays buffered, so the fd stays readable.
    loop.remove(fd);
    loop.add(fd, EventLoop::kRead, [&](uint32_t) { ++ranNew; });
  });

  loop.runOnce(1000);
  EXPECT_EQ(ranOld, 1);
  EXPECT_EQ(ranNew, 0) << "the new registration must wait for a new round";

  loop.runOnce(1000);
  EXPECT_EQ(ranOld, 1) << "the replaced callback must never run again";
  EXPECT_EQ(ranNew, 1);
}

TEST(EventLoop, WakeupFromAnotherThreadEndsALongWait) {
  EventLoop loop;
  std::thread waker([&loop] {
    std::this_thread::sleep_for(50ms);
    loop.wakeup();
  });
  const WallTimer timer;
  loop.runOnce(30000);
  const double waited = timer.seconds();
  waker.join();
  EXPECT_LT(waited, 5.0) << "runOnce must return on wakeup, not timeout";
}

}  // namespace
}  // namespace aviv::net
