#include "proc/pool.h"

#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include "proc/crash_repro.h"
#include "support/error.h"
#include "support/io.h"
#include "support/strings.h"

namespace aviv::proc {

namespace fs = std::filesystem;

namespace {

// Close every inherited fd above the worker's socketpair (dup2'd to 3).
// This is what makes worker death observable: the supervisor's read side
// EOFs only when the LAST copy of the worker end closes, so a sibling
// holding a stray inherited copy would mask its owner's crash forever.
void closeInheritedFds() {
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, 4u, ~0u, 0u) == 0) return;
#endif
  long maxFd = ::sysconf(_SC_OPEN_MAX);
  if (maxFd < 0 || maxFd > 65536) maxFd = 65536;
  for (int fd = 4; fd < maxFd; ++fd) ::close(fd);
}

std::chrono::milliseconds ms(int n) { return std::chrono::milliseconds(n); }

// Respawn backoff of a slot: `firstMs`, then doubling up to 2 s.
int nextBackoffMs(int currentMs, int firstMs) {
  return currentMs == 0 ? firstMs : std::min(currentMs * 2, 2000);
}

}  // namespace

WorkerPool::WorkerPool(PoolConfig config) : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (!config_.crashDir.empty()) {
    try {
      fs::create_directories(config_.crashDir);
    } catch (const std::exception&) {
      config_.crashDir.clear();  // capture off; supervision still works
    }
  }
  slots_.resize(static_cast<size_t>(config_.workers));
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (config_.crashDir.empty()) continue;
    const std::string stem = config_.crashDir + "/.worker-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(i);
    slots_[i].flightPath = stem + ".flight.json";
    slots_[i].notePath = stem + ".note";
  }
  std::lock_guard<std::mutex> lock(mu_);
  int alive = 0;
  for (size_t i = 0; i < slots_.size(); ++i)
    if (spawnSlot(static_cast<int>(i))) ++alive;
  if (alive == 0) throw Error("worker pool: could not fork any worker");
}

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  for (Slot& slot : slots_) killAndReap(slot);
  cv_.notify_all();
}

void WorkerPool::killAndReap(Slot& slot) {
  if (slot.pid > 0) {
    ::kill(slot.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  slot.pid = -1;
  slot.fd.reset();
  slot.dead = true;
}

bool WorkerPool::spawnSlot(int index) {
  Slot& slot = slots_[static_cast<size_t>(index)];
  if (!slot.notePath.empty()) ::unlink(slot.notePath.c_str());
  if (!slot.flightPath.empty()) ::unlink(slot.flightPath.c_str());
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Worker child. glibc's atfork handlers make malloc safe to use here
    // despite sibling supervisor threads; runWorkerProcess re-sandboxes
    // everything else.
    ::dup2(sv[1], 3);
    closeInheritedFds();
    WorkerEnv env = config_.env;
    env.flightRecordPath = slot.flightPath;
    env.crashNotePath = slot.notePath;
    runWorkerProcess(3, env);
  }
  ::close(sv[1]);
  slot.pid = pid;
  slot.fd = net::Fd(sv[0]);
  slot.dead = false;
  stats_.add(&PoolStats::respawns);
  return true;
}

int WorkerPool::acquireSlot() {
  // A typed kError beats an unbounded wait; far above any legitimate
  // queue + compile time.
  const auto giveUpAt =
      Clock::now() +
      ms(std::max(60000, config_.hardDeadlineMs > 0
                             ? 4 * config_.hardDeadlineMs
                             : 0));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return -1;
    const auto now = Clock::now();
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.busy) continue;
      if (!slot.dead) {
        slot.busy = true;
        return static_cast<int>(i);
      }
      if (slot.respawnAt <= now) {
        if (spawnSlot(static_cast<int>(i))) {
          slot.busy = true;
          return static_cast<int>(i);
        }
        // fork refused (EAGAIN, fd pressure): back off and keep trying
        slot.backoffMs =
            nextBackoffMs(slot.backoffMs, config_.respawnBackoffMs);
        slot.respawnAt = now + ms(slot.backoffMs);
      }
    }
    if (now >= giveUpAt) return -1;
    cv_.wait_for(lock, ms(20));
  }
}

void WorkerPool::releaseSlot(int index, bool healthy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[static_cast<size_t>(index)];
    slot.busy = false;
    if (healthy) slot.backoffMs = 0;
  }
  cv_.notify_all();
}

WorkerPool::Attempt WorkerPool::runOnWorker(int index, const std::string& line,
                                            bool wantAsm, uint64_t id) {
  // The busy slot's pid/fd are stable: only this thread may respawn it.
  const int fd = slots_[static_cast<size_t>(index)].fd.get();
  const pid_t pid = slots_[static_cast<size_t>(index)].pid;
  Attempt attempt;

  net::RequestPayload request;
  request.id = id;
  request.wantAsm = wantAsm;
  request.line = line;
  const std::string frame = net::encodeFrame(
      net::FrameType::kRequest, net::encodeRequestPayload(request));
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      attempt.crashed = true;  // worker died idle; EPIPE before dispatch
      return attempt;
    }
    off += static_cast<size_t>(n);
  }

  net::FrameDecoder decoder;
  const auto start = Clock::now();
  auto lastBeat = start;
  auto killedAt = start;
  bool killSent = false;
  char buf[64 << 10];
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 20);
    const auto now = Clock::now();
    if (pr < 0 && errno != EINTR) {
      attempt.crashed = true;
      return attempt;
    }
    if (pr > 0) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        attempt.crashed = true;  // EOF: the worker is gone
        return attempt;
      }
      decoder.feed(buf, static_cast<size_t>(n));
      net::Frame f;
      net::FrameDecoder::Status status;
      bool poisoned = false;
      while ((status = decoder.next(&f)) ==
             net::FrameDecoder::Status::kFrame) {
        if (f.type == net::FrameType::kHeartbeat) {
          lastBeat = now;
          continue;
        }
        if (!net::isResponseType(f.type)) continue;
        net::ResponsePayload response;
        try {
          response = net::decodeResponsePayload(f.payload);
        } catch (const Error&) {
          poisoned = true;  // framed garbage: same as a torn stream
          break;
        }
        if (response.id != id) continue;  // stale; cannot be ours
        attempt.type = f.type;
        attempt.response = std::move(response);
        attempt.gotResponse = true;
        attempt.crashed = killSent;  // killed-but-answered still needs a reap
        return attempt;
      }
      if (status == net::FrameDecoder::Status::kError) poisoned = true;
      if (poisoned) {
        // Torn or poisoned stream (worker died mid-write, or is emitting
        // garbage): kill it and drain to EOF so the reap is clean.
        if (!killSent) ::kill(pid, SIGKILL);
        for (;;) {
          const ssize_t m = ::read(fd, buf, sizeof(buf));
          if (m < 0 && errno == EINTR) continue;
          if (m <= 0) break;
        }
        attempt.crashed = true;
        return attempt;
      }
    }
    if (!killSent) {
      if (config_.hardDeadlineMs > 0 &&
          now - start >= ms(config_.hardDeadlineMs)) {
        ::kill(pid, SIGKILL);
        killSent = true;
        killedAt = now;
        attempt.killedByDeadline = true;
      } else if (config_.heartbeatTimeoutMs > 0 &&
                 now - lastBeat >= ms(config_.heartbeatTimeoutMs)) {
        ::kill(pid, SIGKILL);
        killSent = true;
        killedAt = now;
        attempt.killedByHeartbeat = true;
      }
    } else if (now - killedAt >= ms(5000)) {
      attempt.crashed = true;  // EOF never arrived post-SIGKILL; move on
      return attempt;
    }
  }
}

void WorkerPool::handleCrash(int index, const std::string& line,
                             bool wantAsm, Attempt* attempt) {
  Slot& slot = slots_[static_cast<size_t>(index)];
  const pid_t pid = slot.pid;
  const std::string notePath = slot.notePath;
  const std::string flightPath = slot.flightPath;

  int status = 0;
  if (pid > 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  attempt->exitStatus = status;

  std::string site;
  if (!notePath.empty()) {
    try {
      site = std::string(trim(readFile(notePath)));
    } catch (const std::exception&) {
    }
    ::unlink(notePath.c_str());
  }

  std::string reproDir;
  // A killed-but-answered worker delivered its response; that is a reap,
  // not a lost request — no bundle, no breaker strike.
  if (!attempt->gotResponse) {
    CrashCapture capture;
    capture.crashDir = config_.crashDir;
    capture.requestLine = line;
    capture.wantAsm = wantAsm;
    capture.exitStatus = status;
    capture.killedByDeadline =
        attempt->killedByDeadline || attempt->killedByHeartbeat;
    capture.failpointSite = site;
    capture.rssLimitBytes = config_.env.rssLimitBytes;
    capture.deadlineMs = config_.hardDeadlineMs;
    capture.flightRecordPath = flightPath;
    capture.sequence = crashSeq_.fetch_add(1, std::memory_order_relaxed);
    reproDir = writeCrashRepro(capture);
    if (config_.onCrash) {
      try {
        config_.onCrash();
      } catch (const std::exception&) {
        // The sweep hook must never turn a handled crash into a lost one.
      }
    }
    breakerRecordCrash(line);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.pid = -1;
    slot.fd.reset();
    slot.dead = true;
    slot.busy = false;
    slot.backoffMs = nextBackoffMs(slot.backoffMs, config_.respawnBackoffMs);
    slot.respawnAt = Clock::now() + ms(slot.backoffMs);
  }
  cv_.notify_all();

  stats_.add(&PoolStats::crashes);
  if (attempt->killedByDeadline) stats_.add(&PoolStats::deadlineKills);
  if (attempt->killedByHeartbeat) stats_.add(&PoolStats::heartbeatKills);
  if (!reproDir.empty()) stats_.add(&PoolStats::reproBundles);
}

net::NetResponse WorkerPool::execute(const std::string& line, bool wantAsm) {
  stats_.add(&PoolStats::requests);
  if (breakerOpenFor(line)) return serveBreaker(line, wantAsm);

  net::NetResponse response;
  int lastStatus = 0;
  for (int attemptNo = 0; attemptNo < 2; ++attemptNo) {
    const int index = acquireSlot();
    if (index < 0) {
      response.detail = shutdown_ ? "worker pool shut down"
                                  : "no compile worker available";
      return response;
    }
    Attempt attempt = runOnWorker(index, line, wantAsm,
                                  nextId_.fetch_add(1));
    if (attempt.crashed) {
      ++response.crashRetries;
      handleCrash(index, line, wantAsm, &attempt);
      lastStatus = attempt.exitStatus;
    } else {
      releaseSlot(index, true);
    }
    if (attempt.gotResponse) {
      breakerRecordSuccess(line);
      response.type = attempt.type;
      response.detail = std::move(attempt.response.detail);
      response.body = std::move(attempt.response.body);
      if (response.crashRetries > 0) {
        response.detail += " crashed=" + std::to_string(response.crashRetries);
        stats_.add(&PoolStats::crashRetried);
      }
      return response;
    }
    // Crashed with no answer. If this line just tripped the breaker,
    // recovery serves it without feeding it another worker.
    if (attemptNo == 0 && breakerOpenFor(line)) {
      net::NetResponse served = serveBreaker(line, wantAsm);
      served.crashRetries = response.crashRetries;
      served.detail += " crashed=" + std::to_string(served.crashRetries);
      return served;
    }
  }

  stats_.add(&PoolStats::crashFailed);
  response.detail = "worker crashed twice serving this request (last: " +
                    describeExitStatus(lastStatus) + ") crashed=2";
  return response;
}

bool WorkerPool::breakerOpenFor(const std::string& line) {
  std::lock_guard<std::mutex> lock(breakerMu_);
  const auto it = breaker_.find(line);
  if (it == breaker_.end() || !it->second.open) return false;
  const auto now = Clock::now();
  if (now - it->second.openedAt >
      std::chrono::duration<double>(config_.crashLoopWindowSeconds)) {
    // Window expired: half-open — forget the history and try a worker.
    breaker_.erase(it);
    return false;
  }
  return true;
}

void WorkerPool::breakerRecordCrash(const std::string& line) {
  bool opened = false;
  {
    std::lock_guard<std::mutex> lock(breakerMu_);
    Breach& breach = breaker_[line];
    const auto now = Clock::now();
    if (breach.count == 0 ||
        now - breach.windowStart >
            std::chrono::duration<double>(config_.crashLoopWindowSeconds)) {
      breach.count = 1;
      breach.windowStart = now;
    } else {
      ++breach.count;
    }
    if (!breach.open && breach.count >= config_.crashLoopK) {
      breach.open = true;
      breach.openedAt = now;
      opened = true;
    }
  }
  if (opened) stats_.add(&PoolStats::breakerOpens);
}

void WorkerPool::breakerRecordSuccess(const std::string& line) {
  std::lock_guard<std::mutex> lock(breakerMu_);
  breaker_.erase(line);
}

net::NetResponse WorkerPool::serveBreaker(const std::string& line,
                                          bool wantAsm) {
  stats_.add(&PoolStats::breakerServed);
  // In-process baseline compile: a deliberately different code path from
  // the covering flow that keeps killing workers, and the crash-class fail
  // points only exist on worker code paths, so this cannot take the
  // supervisor down.
  const RequestParse parse = parseRequestLine(line, 0, config_.env.defaults);
  if (!parse.ok()) {
    net::NetResponse response;
    response.detail = parse.diagnostic.message;
    return response;
  }
  ParsedRequest request = *parse.request;
  request.options.engine = Engine::kBaseline;
  RequestExecConfig exec;
  exec.wantAsm = wantAsm;
  TelemetryNode tel("breaker");
  net::NetResponse response = toResponse(executeRequest(request, exec, tel));
  if (response.type != net::FrameType::kError) {
    response.type = net::FrameType::kDegraded;
    response.detail += " breaker=baseline";
  }
  return response;
}

PoolStats WorkerPool::stats() const { return stats_.snapshot(); }

int WorkerPool::aliveWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int alive = 0;
  for (const Slot& slot : slots_)
    if (!slot.dead && slot.pid > 0) ++alive;
  return alive;
}

}  // namespace aviv::proc
