#include "proc/worker.h"

#include <csignal>
#include <cstring>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "net/frame.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/timer.h"

namespace aviv::proc {

namespace {

// Crash-handler state. Written once before the serve loop starts; the
// handler itself only reads it.
const char* g_flightRecordPath = nullptr;

extern "C" void handleWorkerCrash(int sig) {
  // Best-effort flight-record dump, then die with the original signal so
  // the supervisor's waitpid sees the truth. writeFlightRecord is noexcept
  // but not async-signal-safe (it allocates); acceptable here — the
  // process is dying anyway, and if the dump wedges inside a corrupted
  // allocator the supervisor's hard deadline SIGKILLs us, which is the
  // same crash class from its point of view.
  if (g_flightRecordPath != nullptr)
    trace::Tracer::instance().writeFlightRecord(g_flightRecordPath);
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

// Full-frame blocking write, serialized against the heartbeat thread.
void writeFrame(int fd, std::mutex& mu, const std::string& frame) {
  std::lock_guard<std::mutex> lock(mu);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Supervisor gone (EPIPE/ECONNRESET): nothing left to serve.
      ::_exit(0);
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void applyWorkerLimits(uint64_t rssLimitBytes, uint64_t cpuLimitSeconds) {
  if (rssLimitBytes > 0) {
    // RLIMIT_AS is the portable stand-in for an RSS cap: allocation past it
    // fails, which the worker-oom model turns into the kernel-OOM outcome.
    rlimit lim{};
    lim.rlim_cur = static_cast<rlim_t>(rssLimitBytes);
    lim.rlim_max = static_cast<rlim_t>(rssLimitBytes);
    (void)::setrlimit(RLIMIT_AS, &lim);
  }
  if (cpuLimitSeconds > 0) {
    // Soft limit delivers SIGXCPU (default: terminate); hard limit one
    // second later SIGKILLs a handler that swallowed it.
    rlimit lim{};
    lim.rlim_cur = static_cast<rlim_t>(cpuLimitSeconds);
    lim.rlim_max = static_cast<rlim_t>(cpuLimitSeconds + 1);
    (void)::setrlimit(RLIMIT_CPU, &lim);
  }
}

void evalWorkerCrashPoints(const std::string& crashNotePath) {
  FailPoints& points = FailPoints::instance();
  if (!points.active()) return;
  // Note the site BEFORE crashing (still on a healthy code path) so the
  // supervisor can record an exact always-fire replay spec in the bundle.
  const auto noteThen = [&](const char* site) {
    if (!crashNotePath.empty()) {
      try {
        writeFile(crashNotePath, site);
      } catch (const Error&) {
        // The note is advisory; the crash must happen regardless.
      }
    }
  };
  if (points.shouldFail("worker-segv")) {
    noteThen("worker-segv");
    FailPoints::instance().configure("worker-segv");  // re-arm, then die
    FailPoints::instance().maybeCrash("worker-segv",
                                      FailPoints::CrashAction::kSegv);
  }
  if (points.shouldFail("worker-abort")) {
    noteThen("worker-abort");
    FailPoints::instance().configure("worker-abort");
    FailPoints::instance().maybeCrash("worker-abort",
                                      FailPoints::CrashAction::kAbort);
  }
  if (points.shouldFail("worker-oom")) {
    noteThen("worker-oom");
    FailPoints::instance().configure("worker-oom");
    FailPoints::instance().maybeCrash("worker-oom",
                                      FailPoints::CrashAction::kOom);
  }
  if (points.shouldFail("worker-hang")) {
    noteThen("worker-hang");
    FailPoints::instance().configure("worker-hang");
    FailPoints::instance().maybeCrash("worker-hang",
                                      FailPoints::CrashAction::kHang);
  }
}

std::string describeExitStatus(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    return "signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status))
    return "exit code " + std::to_string(WEXITSTATUS(status));
  return "status " + std::to_string(status);
}

void runWorkerProcess(int fd, const WorkerEnv& env) {
  // The child of a fork(): reset inherited dispositions (the daemon's
  // SIGTERM handler must not swallow the supervisor's kill), become our
  // own sandbox, and serve.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_IGN);
  if (!env.flightRecordPath.empty()) {
    g_flightRecordPath = ::strdup(env.flightRecordPath.c_str());
    trace::Tracer::instance().enable();
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
      std::signal(sig, handleWorkerCrash);
  }
  applyWorkerLimits(env.rssLimitBytes, env.cpuLimitSeconds);

  std::shared_ptr<ResultCache> cache;
  if (env.cacheEnabled) {
    CacheConfig cacheConfig;
    cacheConfig.dir = env.cacheDir;
    cacheConfig.memoryEntries = env.memEntries;
    // Siblings share the on-disk store: a respawn must not sweep their
    // in-progress temps.
    cacheConfig.sweepMinAgeSeconds = 5.0;
    try {
      cache = std::make_shared<ResultCache>(cacheConfig);
    } catch (const Error&) {
      cache = nullptr;  // store unusable: serve uncached rather than die
    }
  }
  RequestExecConfig exec;
  exec.cache = cache;
  exec.retries = env.transientRetries;

  std::mutex writeMu;
  std::atomic<bool> busy{false};
  std::atomic<bool> done{false};
  // Heartbeat watchdog: beats only while a request is executing (an idle
  // worker's beats would just pile up unread in the kernel buffer).
  std::thread heartbeat([&] {
    const std::string beat = net::encodeFrame(net::FrameType::kHeartbeat, "");
    while (!done.load(std::memory_order_relaxed)) {
      if (busy.load(std::memory_order_relaxed)) writeFrame(fd, writeMu, beat);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(env.heartbeatMs > 0 ? env.heartbeatMs
                                                        : 100));
    }
  });
  heartbeat.detach();  // the process exits via _exit; nothing to join

  net::FrameDecoder decoder;
  char buf[64 << 10];
  for (;;) {
    net::Frame frame;
    net::FrameDecoder::Status status;
    while ((status = decoder.next(&frame)) ==
           net::FrameDecoder::Status::kNeedMore) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::_exit(0);  // supervisor gone
      }
      if (n == 0) ::_exit(0);  // clean shutdown: supervisor closed its end
      decoder.feed(buf, static_cast<size_t>(n));
    }
    if (status == net::FrameDecoder::Status::kError) ::_exit(4);
    if (frame.type != net::FrameType::kRequest) continue;

    net::RequestPayload request;
    try {
      request = net::decodeRequestPayload(frame.payload);
    } catch (const Error&) {
      ::_exit(4);  // the supervisor never sends malformed payloads
    }

    busy.store(true, std::memory_order_relaxed);
    exec.wantAsm = request.wantAsm;
    evalWorkerCrashPoints(env.crashNotePath);

    const WallTimer timer;
    net::NetResponse answer;
    try {
      TelemetryNode local("req");
      answer = serveRequestLine(request.line, env.defaults, exec, local);
    } catch (const std::exception& e) {
      // serveRequestLine never throws; this is a backstop for surprises
      // (allocation failure). The worker answers and lives on.
      answer.detail = e.what();
    }
    net::ResponsePayload response;
    response.id = request.id;
    response.wallMicros = static_cast<uint64_t>(timer.seconds() * 1e6);
    response.detail = std::move(answer.detail);
    response.body = std::move(answer.body);

    const std::string encoded =
        net::encodeFrame(answer.type, net::encodeResponsePayload(response));
    if (FailPoints::instance().shouldFail("worker-torn-write")) {
      // Die mid-frame: the supervisor's decoder must surface a torn,
      // poisoned-not-wedged stream and treat it as a crash. Note the site
      // first so the bundle replays (the replay child re-fires it after
      // its compile).
      if (!env.crashNotePath.empty()) {
        try {
          writeFile(env.crashNotePath, "worker-torn-write");
        } catch (const Error&) {
        }
      }
      std::lock_guard<std::mutex> lock(writeMu);
      (void)!::write(fd, encoded.data(), encoded.size() / 2);
      ::_exit(3);
    }
    writeFrame(fd, writeMu, encoded);
    busy.store(false, std::memory_order_relaxed);
  }
}

}  // namespace aviv::proc
