// CompileServer — the socket front end of the avivd compile service
// (DESIGN.md §6.7). A single event-loop thread (the caller of serve())
// owns all sockets: it accepts connections, decodes request frames
// (net/frame.h), and admits them into a bounded queue; the session
// ThreadPool's workers drain that queue, run the request handler, and hand
// encoded response frames back to the loop through a completion queue +
// wakeup pipe. The server knows nothing about compilation — the handler
// (avivd plugs in its one dispatch: service/request.h's serveRequestLine,
// or the src/proc worker pool) maps one request line to a typed
// NetResponse (net/frame.h).
//
// Admission control and backpressure, in order of engagement:
//   * Bounded queue: a request arriving while `queueCapacity` requests are
//     already admitted-but-unstarted is answered RETRY_AFTER immediately
//     (a "shed") and costs O(1) memory — the server prefers telling a
//     client to come back over growing without bound.
//   * Per-connection write backpressure: when a connection's outbound
//     buffer exceeds writeHighWater (a client that sends but does not
//     read), the server stops READING from that connection until the
//     buffer drains below writeLowWater. Its pipelined requests then park
//     in the kernel socket buffer, propagating the pressure to the client.
//   * Frame cap: a request frame declaring a payload above maxFrameBytes
//     poisons the connection before any payload is buffered.
//
// Graceful drain (SIGTERM/SIGINT → requestStop() or a sig_atomic flag):
// stop accepting, stop reading, finish every admitted request, flush every
// outbound buffer, then close. A well-behaved client loses zero responses;
// a connection that stalls past drainTimeoutMs is dropped so shutdown
// always terminates.
//
// Fail-points (support/failpoint.h): `net-accept` (accepted connection
// dropped), `net-read` (connection read error), `net-write` (transient
// write failure, retried on the next writable event) — all recover per
// the PR 3 taxonomy, covered by the fault-injection CI matrix.
#pragma once

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace aviv::net {

struct ServerConfig {
  Endpoint listen;
  int backlog = 512;
  // Admitted-but-unstarted requests; beyond this the server sheds with
  // RETRY_AFTER instead of growing memory.
  int queueCapacity = 256;
  uint64_t maxFrameBytes = kDefaultMaxPayload;
  // Outbound-buffer watermarks for per-connection read pausing.
  size_t writeHighWater = 1u << 20;
  size_t writeLowWater = 256u << 10;
  // Suggested client retry delay carried in RETRY_AFTER responses, and the
  // cadence at which serve() re-checks its stop flag.
  int retryAfterMs = 50;
  int pollIntervalMs = 50;
  // Drain gives stalled connections this long to accept their responses
  // before dropping them; guarantees shutdown terminates.
  int drainTimeoutMs = 30000;
  EventLoop::Backend backend = EventLoop::Backend::kAuto;
};

struct NetRequest {
  uint64_t id = 0;
  bool wantAsm = false;
  std::string line;
};

// Runs on a ThreadPool worker; must be thread-safe and must not throw
// (exceptions are converted to kError responses as a backstop).
using RequestHandler = std::function<NetResponse(const NetRequest&)>;

struct ServerStats {
  int64_t accepted = 0;
  int64_t acceptErrors = 0;
  int64_t connectionsClosed = 0;
  int64_t requests = 0;        // request frames admitted or shed
  int64_t shed = 0;            // answered RETRY_AFTER by admission control
  int64_t responses = 0;       // response frames fully handed to a socket
  int64_t ok = 0;
  int64_t hits = 0;
  int64_t degraded = 0;
  int64_t quarantined = 0;
  int64_t errors = 0;          // kError responses produced
  // Responses that consumed at least one compile-worker crash (retried on
  // a healthy worker or answered by the crash-loop breaker) — only nonzero
  // under --isolate-workers.
  int64_t crashRetried = 0;
  int64_t readErrors = 0;
  int64_t writeErrors = 0;     // transient write failures (retried)
  int64_t frameErrors = 0;     // protocol violations (connection dropped)
  int64_t tornConnections = 0; // peer closed mid-frame
  int64_t droppedResponses = 0;  // completion for an already-gone connection
  int64_t maxQueueDepth = 0;
  int64_t readPauses = 0;      // backpressure engagements
};

class CompileServer {
 public:
  CompileServer(ServerConfig config, ThreadPool& pool,
                RequestHandler handler);
  ~CompileServer();
  CompileServer(const CompileServer&) = delete;
  CompileServer& operator=(const CompileServer&) = delete;

  // Binds and listens; returns the bound endpoint (with the real port for
  // TCP port 0). Throws aviv::Error on failure.
  Endpoint start();

  // Runs the event loop on the calling thread until requestStop() is
  // called or *stopFlag becomes nonzero (nullable), then drains and
  // returns. The flag is polled every pollIntervalMs and on every wakeup,
  // so a signal handler that sets it and write()s wakeupFd() stops the
  // loop promptly.
  void serve(const volatile std::sig_atomic_t* stopFlag = nullptr);

  // Thread-safe programmatic stop (tests, embedding).
  void requestStop();
  // Async-signal-safe nudge target: write one byte here from a signal
  // handler after setting the stop flag.
  [[nodiscard]] int wakeupFd() const { return loop_.wakeupFd(); }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] int queueDepth() const;
  [[nodiscard]] size_t openConnections() const { return connections_.size(); }

 private:
  struct Connection {
    uint64_t id = 0;
    Fd fd;
    FrameDecoder decoder;
    std::string outbuf;
    size_t outPos = 0;  // flushed prefix of outbuf
    int inFlight = 0;   // admitted requests not yet answered
    bool readPaused = false;
    bool closing = false;  // close once outbuf drains and inFlight == 0

    explicit Connection(uint64_t maxFrame) : decoder(maxFrame) {}
    [[nodiscard]] size_t pendingOut() const { return outbuf.size() - outPos; }
  };

  struct Job {
    uint64_t connId = 0;
    NetRequest request;
    double enqueueSeconds = 0;  // server clock at admission
  };

  struct Completion {
    uint64_t connId = 0;
    FrameType type = FrameType::kError;
    std::string frame;  // fully encoded response frame
  };

  // Loop-thread handlers. Only closeConnection() destroys a Connection, so
  // any call into flushConnection()/closeConnection() invalidates held
  // Connection& — callers re-look-up through the id map afterwards.
  void onAcceptable();
  void onConnectionEvent(uint64_t connId, uint32_t ready);
  void readFromConnection(uint64_t connId);
  void handleFrame(Connection& conn, Frame frame);
  // Returns false when the connection was closed (write error, or a
  // finished `closing` connection).
  bool flushConnection(uint64_t connId);
  void updateBackpressure(Connection& conn);
  void closeConnection(uint64_t connId);
  void drainCompletions();
  void enqueueResponse(Connection& conn, FrameType type,
                       const ResponsePayload& payload);
  void drain();
  void bumpStat(int64_t ServerStats::*field, int64_t delta = 1);

  // Worker side.
  void workerLoop();
  [[nodiscard]] bool admit(Job job);  // false: queue full (caller sheds)

  ServerConfig config_;
  ThreadPool& pool_;
  RequestHandler handler_;
  EventLoop loop_;
  WallTimer clock_;

  Fd listener_;
  Endpoint bound_;
  bool started_ = false;
  bool draining_ = false;
  std::atomic<bool> stopRequested_{false};

  uint64_t nextConnId_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;

  mutable std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::deque<Job> queue_;
  bool stopWorkers_ = false;
  std::thread pumpThread_;  // runs pool_.parallelFor over workerLoop

  std::mutex completionMu_;
  std::vector<Completion> completions_;
  std::atomic<int> inFlightJobs_{0};  // admitted, response not yet queued

  mutable std::mutex statsMu_;
  ServerStats stats_;
};

}  // namespace aviv::net
