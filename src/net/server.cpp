#include "net/server.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/failpoint.h"

namespace aviv::net {

CompileServer::CompileServer(ServerConfig config, ThreadPool& pool,
                             RequestHandler handler)
    : config_(std::move(config)),
      pool_(pool),
      handler_(std::move(handler)) {
  AVIV_CHECK(config_.queueCapacity >= 1);
  AVIV_CHECK(handler_ != nullptr);
}

CompileServer::~CompileServer() {
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    stopWorkers_ = true;
    queue_.clear();
  }
  queueCv_.notify_all();
  if (pumpThread_.joinable()) pumpThread_.join();
}

Endpoint CompileServer::start() {
  AVIV_CHECK(!started_);
  raiseFdLimit();
  listener_ = listenOn(config_.listen, /*backlog=*/512, &bound_);
  loop_.add(listener_.get(), EventLoop::kRead,
            [this](uint32_t) { onAcceptable(); });
  // Workers: each of the pool's participants runs one workerLoop until the
  // server stops — the bounded queue feeds the session ThreadPool.
  pumpThread_ = std::thread([this] {
    pool_.parallelFor(static_cast<size_t>(pool_.parallelism()),
                      [this](size_t, int) { workerLoop(); });
  });
  started_ = true;
  return bound_;
}

void CompileServer::requestStop() {
  stopRequested_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

int CompileServer::queueDepth() const {
  std::lock_guard<std::mutex> lock(queueMu_);
  return static_cast<int>(queue_.size());
}

void CompileServer::serve(const volatile std::sig_atomic_t* stopFlag) {
  AVIV_CHECK(started_);
  for (;;) {
    if (stopRequested_.load(std::memory_order_relaxed)) break;
    if (stopFlag != nullptr && *stopFlag != 0) break;
    loop_.runOnce(config_.pollIntervalMs);
    drainCompletions();
  }
  drain();
}

// --- accept path ----------------------------------------------------------

void CompileServer::onAcceptable() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      // EMFILE, ECONNABORTED, ...: count and keep serving — an accept
      // failure must never take down the loop.
      stats_.add(&ServerStats::acceptErrors);
      return;
    }
    Fd accepted(fd);
    if (FailPoints::instance().shouldFail("net-accept")) {
      // Injected accept failure: the connection is dropped before any
      // frame is read; the client sees a clean close and reconnects.
      stats_.add(&ServerStats::acceptErrors);
      continue;
    }
    try {
      setNonBlocking(accepted.get());
    } catch (const Error&) {
      stats_.add(&ServerStats::acceptErrors);
      continue;
    }
    const uint64_t connId = nextConnId_++;
    auto conn = std::make_unique<Connection>(config_.maxFrameBytes);
    conn->id = connId;
    conn->fd = std::move(accepted);
    const int connFd = conn->fd.get();
    connections_.emplace(connId, std::move(conn));
    loop_.add(connFd, EventLoop::kRead, [this, connId](uint32_t ready) {
      onConnectionEvent(connId, ready);
    });
    stats_.add(&ServerStats::accepted);
  }
}

// --- connection I/O -------------------------------------------------------
// Discipline: only closeConnection() erases a connection, and only
// flushConnection(id)/closeConnection(id) are called while no Connection&
// is held — every path re-validates through the id map after either.

void CompileServer::onConnectionEvent(uint64_t connId, uint32_t ready) {
  if ((ready & EventLoop::kWrite) != 0 && !flushConnection(connId)) return;
  auto it = connections_.find(connId);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if ((ready & EventLoop::kRead) != 0 && !conn.readPaused && !conn.closing &&
      !draining_)
    readFromConnection(connId);
}

void CompileServer::readFromConnection(uint64_t connId) {
  char buf[64 << 10];
  for (;;) {
    auto it = connections_.find(connId);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;
    if (conn.readPaused || conn.closing) return;

    if (FailPoints::instance().shouldFail("net-read")) {
      // Injected read failure — same recovery as a hard socket error: the
      // connection is dropped, the server keeps serving everyone else.
      stats_.add(&ServerStats::readErrors);
      closeConnection(connId);
      return;
    }
    const IoResult io = readSome(conn.fd.get(), buf, sizeof(buf));
    if (io.wouldBlock) return;
    if (io.error != 0) {
      stats_.add(&ServerStats::readErrors);
      closeConnection(connId);
      return;
    }
    if (io.eof) {
      if (conn.decoder.midFrame()) {
        // Torn mid-frame close: the buffered request prefix can never
        // complete, and the peer is gone — drop it.
        stats_.add(&ServerStats::tornConnections);
        closeConnection(connId);
        return;
      }
      // Half-close: the client is done sending but may still be reading
      // (shutdown(SHUT_WR) idiom). Answer what was admitted, then close.
      conn.closing = true;
      updateBackpressure(conn);
      if (conn.inFlight == 0 && conn.pendingOut() == 0)
        closeConnection(connId);
      else
        flushConnection(connId);
      return;
    }
    conn.decoder.feed(buf, static_cast<size_t>(io.n));

    Frame frame;
    for (;;) {
      const FrameDecoder::Status status = conn.decoder.next(&frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        // Protocol violation: answer with a final error frame (id 0 — the
        // stream is unparseable, so no request id exists) and close once
        // it flushes.
        stats_.add(&ServerStats::frameErrors);
        ResponsePayload payload;
        payload.detail = conn.decoder.error();
        enqueueResponse(conn, FrameType::kError, payload);
        conn.closing = true;
        updateBackpressure(conn);
        flushConnection(connId);
        return;
      }
      handleFrame(conn, std::move(frame));
      if (conn.closing || conn.readPaused) {
        flushConnection(connId);
        return;
      }
    }
    // Flush shed/error responses produced while decoding, then continue
    // reading; flushConnection may close, so the loop re-validates.
    if (conn.pendingOut() > 0 && !flushConnection(connId)) return;
  }
}

void CompileServer::handleFrame(Connection& conn, Frame frame) {
  if (frame.type != FrameType::kRequest) {
    stats_.add(&ServerStats::frameErrors);
    conn.closing = true;
    return;
  }
  RequestPayload request;
  try {
    request = decodeRequestPayload(frame.payload);
  } catch (const Error& e) {
    stats_.add(&ServerStats::frameErrors);
    ResponsePayload payload;
    payload.detail = e.what();
    enqueueResponse(conn, FrameType::kError, payload);
    conn.closing = true;
    return;
  }

  stats_.add(&ServerStats::requests);

  Job job;
  job.connId = conn.id;
  job.request.id = request.id;
  job.request.wantAsm = request.wantAsm;
  job.request.line = std::move(request.line);
  job.enqueueSeconds = clock_.seconds();
  if (!admit(std::move(job))) {
    // Load shed: answer immediately instead of queueing without bound.
    stats_.add(&ServerStats::shed);
    trace::instant("net", "net.shed");
    ResponsePayload payload;
    payload.id = request.id;
    payload.detail = "queue full; retry after " +
                     std::to_string(config_.retryAfterMs) + "ms";
    enqueueResponse(conn, FrameType::kRetryAfter, payload);
    return;
  }
  ++conn.inFlight;
}

bool CompileServer::admit(Job job) {
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    if (static_cast<int>(queue_.size()) >= config_.queueCapacity)
      return false;
    queue_.push_back(std::move(job));
    inFlightJobs_.fetch_add(1, std::memory_order_relaxed);
    stats_.raise(&ServerStats::maxQueueDepth,
                 static_cast<int64_t>(queue_.size()));
  }
  queueCv_.notify_one();
  return true;
}

// --- worker side ----------------------------------------------------------

void CompileServer::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queueMu_);
      queueCv_.wait(lock, [this] { return stopWorkers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopWorkers_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const double queueSeconds = clock_.seconds() - job.enqueueSeconds;
    NetResponse response;
    double wallSeconds = 0;
    {
      trace::Span span("net", "net.request");
      span.arg("queue_us", static_cast<int64_t>(queueSeconds * 1e6));
      const WallTimer timer;
      try {
        response = handler_(job.request);
      } catch (const std::exception& e) {
        // Backstop: handlers are supposed to catch their own failures.
        response.type = FrameType::kError;
        response.detail = e.what();
        response.body.clear();
      }
      wallSeconds = timer.seconds();
    }
    if (response.crashRetries > 0) stats_.add(&ServerStats::crashRetried);
    if (metrics::on()) {
      auto& registry = metrics::Registry::instance();
      registry.histogram("net.request.wall.us")
          .record(static_cast<int64_t>(wallSeconds * 1e6));
      registry.histogram("net.request.queue.us")
          .record(static_cast<int64_t>(queueSeconds * 1e6));
    }

    ResponsePayload payload;
    payload.id = job.request.id;
    payload.wallMicros = static_cast<uint64_t>(wallSeconds * 1e6);
    payload.queueMicros = static_cast<uint64_t>(queueSeconds * 1e6);
    payload.detail = std::move(response.detail);
    payload.body = std::move(response.body);
    Completion completion;
    completion.connId = job.connId;
    completion.type = response.type;
    completion.frame =
        encodeFrame(response.type, encodeResponsePayload(payload));
    {
      std::lock_guard<std::mutex> lock(completionMu_);
      completions_.push_back(std::move(completion));
    }
    inFlightJobs_.fetch_sub(1, std::memory_order_relaxed);
    loop_.wakeup();
  }
}

// --- completion + write path ----------------------------------------------

void CompileServer::drainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completionMu_);
    batch.swap(completions_);
  }
  std::vector<uint64_t> touched;
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.connId);
    if (it == connections_.end()) {
      // The client vanished before its answer was ready.
      stats_.add(&ServerStats::droppedResponses);
      continue;
    }
    Connection& conn = *it->second;
    AVIV_CHECK(conn.inFlight > 0);
    --conn.inFlight;
    conn.outbuf.append(completion.frame);
    countResponse(completion.type);
    touched.push_back(completion.connId);
  }
  for (const uint64_t connId : touched) flushConnection(connId);
}

void CompileServer::countResponse(FrameType type) {
  stats_.add(&ServerStats::responses);
  switch (type) {
    case FrameType::kOk: stats_.add(&ServerStats::ok); break;
    case FrameType::kHit: stats_.add(&ServerStats::hits); break;
    case FrameType::kDegraded: stats_.add(&ServerStats::degraded); break;
    case FrameType::kQuarantined: stats_.add(&ServerStats::quarantined); break;
    case FrameType::kError: stats_.add(&ServerStats::errors); break;
    default: break;
  }
}

void CompileServer::enqueueResponse(Connection& conn, FrameType type,
                                    const ResponsePayload& payload) {
  countResponse(type);
  conn.outbuf.append(encodeFrame(type, encodeResponsePayload(payload)));
  updateBackpressure(conn);
}

bool CompileServer::flushConnection(uint64_t connId) {
  auto it = connections_.find(connId);
  if (it == connections_.end()) return false;
  Connection& conn = *it->second;
  while (conn.pendingOut() > 0) {
    if (FailPoints::instance().shouldFail("net-write")) {
      // Injected transient write failure: leave the buffer in place; the
      // write interest below retries on the next writable event.
      stats_.add(&ServerStats::writeErrors);
      break;
    }
    const IoResult io = writeSome(
        conn.fd.get(), conn.outbuf.data() + conn.outPos, conn.pendingOut());
    if (io.wouldBlock) break;
    if (io.error != 0) {
      stats_.add(&ServerStats::writeErrors);
      closeConnection(connId);
      return false;
    }
    conn.outPos += static_cast<size_t>(io.n);
  }
  if (conn.pendingOut() == 0) {
    conn.outbuf.clear();
    conn.outPos = 0;
    if (conn.closing && conn.inFlight == 0) {
      closeConnection(connId);
      return false;
    }
  } else if (conn.outPos > (1u << 20)) {
    // Compact the flushed prefix so a slow reader cannot pin it forever.
    conn.outbuf.erase(0, conn.outPos);
    conn.outPos = 0;
  }
  updateBackpressure(conn);
  return true;
}

void CompileServer::updateBackpressure(Connection& conn) {
  // Outbound-buffer watermarks for per-connection read pausing.
  static constexpr size_t kWriteHighWater = 1u << 20;
  static constexpr size_t kWriteLowWater = 256u << 10;
  const size_t pending = conn.pendingOut();
  if (!conn.readPaused && !conn.closing && pending > kWriteHighWater) {
    conn.readPaused = true;
    stats_.add(&ServerStats::readPauses);
  } else if (conn.readPaused && pending < kWriteLowWater) {
    conn.readPaused = false;
  }
  uint32_t interest = 0;
  if (!conn.readPaused && !conn.closing && !draining_)
    interest |= EventLoop::kRead;
  if (pending > 0) interest |= EventLoop::kWrite;
  loop_.modify(conn.fd.get(), interest);
}

void CompileServer::closeConnection(uint64_t connId) {
  auto it = connections_.find(connId);
  if (it == connections_.end()) return;
  loop_.remove(it->second->fd.get());
  connections_.erase(it);
  stats_.add(&ServerStats::connectionsClosed);
}

// --- graceful drain -------------------------------------------------------

void CompileServer::drain() {
  draining_ = true;
  if (listener_.valid()) {
    loop_.remove(listener_.get());
    listener_.reset();
    if (config_.listen.isUnix) ::unlink(config_.listen.path.c_str());
  }
  // Stop reading everywhere: admitted work finishes, new bytes park in the
  // kernel buffers until the close.
  for (auto& [connId, conn] : connections_)
    loop_.modify(conn->fd.get(),
                 conn->pendingOut() > 0 ? EventLoop::kWrite : 0u);

  const WallTimer drainTimer;
  for (;;) {
    drainCompletions();
    bool outputPending = false;
    for (auto& [connId, conn] : connections_)
      if (conn->pendingOut() > 0) outputPending = true;
    const bool queueEmpty = queueDepth() == 0;
    const bool workIdle = inFlightJobs_.load(std::memory_order_relaxed) == 0;
    bool completionsEmpty;
    {
      std::lock_guard<std::mutex> lock(completionMu_);
      completionsEmpty = completions_.empty();
    }
    if (queueEmpty && workIdle && completionsEmpty && !outputPending) break;
    if (drainTimer.millis() > config_.drainTimeoutMs) {
      // Give up on stalled peers; count their unstarted requests as
      // dropped so the loss is visible.
      std::lock_guard<std::mutex> lock(queueMu_);
      inFlightJobs_.fetch_sub(static_cast<int>(queue_.size()),
                              std::memory_order_relaxed);
      stats_.add(&ServerStats::droppedResponses,
                 static_cast<int64_t>(queue_.size()));
      queue_.clear();
      break;
    }
    loop_.runOnce(config_.pollIntervalMs);
  }

  {
    std::lock_guard<std::mutex> lock(queueMu_);
    stopWorkers_ = true;
  }
  queueCv_.notify_all();
  if (pumpThread_.joinable()) pumpThread_.join();
  drainCompletions();  // responses for connections we are about to close

  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (auto& [connId, conn] : connections_) ids.push_back(connId);
  for (const uint64_t connId : ids) closeConnection(connId);
}

}  // namespace aviv::net
