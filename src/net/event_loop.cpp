#include "net/event_loop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "support/error.h"

namespace aviv::net {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() : epollFd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epollFd_.valid()) throwErrno("epoll_create1");
  int pipeFds[2];
  if (::pipe(pipeFds) < 0) throwErrno("pipe");
  wakePipe_[0] = Fd(pipeFds[0]);
  wakePipe_[1] = Fd(pipeFds[1]);
  setNonBlocking(wakePipe_[0].get());
  setNonBlocking(wakePipe_[1].get());
  // The wake pipe is a plain watched fd; its callback just drains it.
  add(wakePipe_[0].get(), kRead, [this](uint32_t) { drainWakePipe(); });
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, uint32_t interest, Callback callback) {
  AVIV_CHECK(fd >= 0);
  AVIV_CHECK(entries_.find(fd) == entries_.end());
  Entry entry;
  entry.interest = interest;
  entry.generation = nextGeneration_++;
  entry.callback = std::move(callback);
  entries_.emplace(fd, std::move(entry));
  control(EPOLL_CTL_ADD, fd, interest);
}

void EventLoop::modify(int fd, uint32_t interest) {
  auto it = entries_.find(fd);
  AVIV_CHECK(it != entries_.end());
  if (it->second.interest == interest) return;
  it->second.interest = interest;
  control(EPOLL_CTL_MOD, fd, interest);
}

void EventLoop::remove(int fd) {
  auto it = entries_.find(fd);
  if (it == entries_.end()) return;
  control(EPOLL_CTL_DEL, fd, 0);
  entries_.erase(it);
}

void EventLoop::wakeup() {
  const char byte = 0;
  // Best effort: a full pipe already guarantees a pending wake.
  [[maybe_unused]] const ssize_t n =
      ::write(wakePipe_[1].get(), &byte, 1);
}

void EventLoop::drainWakePipe() {
  char buf[256];
  while (::read(wakePipe_[0].get(), buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::control(int op, int fd, uint32_t interest) {
  epoll_event ev{};  // non-null even for DEL, per the man page
  ev.events = (interest & kRead ? EPOLLIN : 0u) |
              (interest & kWrite ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  // A failed DEL only means the fd is already gone from the kernel set.
  if (::epoll_ctl(epollFd_.get(), op, fd, &ev) < 0 && op != EPOLL_CTL_DEL)
    throwErrno(op == EPOLL_CTL_ADD ? "epoll_ctl(ADD)" : "epoll_ctl(MOD)");
}

int EventLoop::runOnce(int timeoutMs) {
  static constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  const int n = ::epoll_wait(epollFd_.get(), events, kMaxEvents, timeoutMs);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throwErrno("epoll_wait");
  }

  // Snapshot every ready fd with its registration generation first, then
  // re-validate before each dispatch: an earlier callback this round may
  // have removed the fd (or removed + re-added it, changing generation).
  struct Pending {
    int fd;
    uint32_t bits;
    uint64_t generation;
  };
  std::vector<Pending> snapshot;
  snapshot.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    uint32_t bits = 0;
    if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0)
      bits |= kRead;
    if ((events[i].events & EPOLLOUT) != 0) bits |= kWrite;
    const auto it = entries_.find(events[i].data.fd);
    if (bits == 0 || it == entries_.end()) continue;
    snapshot.push_back({events[i].data.fd, bits, it->second.generation});
  }
  int dispatched = 0;
  for (const Pending& pending : snapshot) {
    auto it = entries_.find(pending.fd);
    if (it == entries_.end() || it->second.generation != pending.generation)
      continue;
    ++dispatched;
    // Invoke through a copy: the callback may remove its own registration,
    // which would otherwise destroy the std::function mid-call.
    const Callback callback = it->second.callback;
    callback(pending.bits);
  }
  return dispatched;
}

}  // namespace aviv::net
