// CompileServer + WorkerPool end to end (the `avivd --listen
// --isolate-workers` wiring): a client's request is dispatched to an
// isolated worker process, and the zero-lost-responses contract holds all
// the way through graceful drain — a stop requested WHILE the only worker
// is hung must still deliver the (crash-retried) response before the
// connection closes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "proc/pool.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"

#if defined(__SANITIZE_THREAD__)
#define AVIV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AVIV_TSAN 1
#endif
#endif
#ifdef AVIV_TSAN
#define AVIV_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based worker tests are unsupported under TSan"
#else
#define AVIV_SKIP_UNDER_TSAN() (void)0
#endif

namespace aviv::proc {
namespace {

using namespace std::chrono_literals;

net::Endpoint uniqueUnixEndpoint() {
  static int counter = 0;
  net::Endpoint endpoint;
  endpoint.isUnix = true;
  endpoint.path = "/tmp/aviv_proc_server_test_" + std::to_string(::getpid()) +
                  "_" + std::to_string(++counter) + ".sock";
  return endpoint;
}

// The avivd handler shape: one request line through the pool, whose typed
// answer (crash provenance included) is the server's response as is.
net::RequestHandler poolHandler(std::shared_ptr<WorkerPool> pool) {
  return [pool](const net::NetRequest& request) {
    return pool->execute(request.line, request.wantAsm);
  };
}

// Minimal blocking frame client.
class Client {
 public:
  explicit Client(const net::Endpoint& endpoint)
      : fd_(net::connectTo(endpoint)) {}

  void sendRequest(uint64_t id, const std::string& line) {
    net::RequestPayload payload;
    payload.id = id;
    payload.line = line;
    const std::string frame = net::encodeFrame(
        net::FrameType::kRequest, net::encodeRequestPayload(payload));
    size_t off = 0;
    while (off < frame.size()) {
      const net::IoResult io =
          net::writeSome(fd_.get(), frame.data() + off, frame.size() - off);
      ASSERT_EQ(io.error, 0);
      off += static_cast<size_t>(io.n);
    }
  }

  bool recvFrame(net::Frame* out) {
    char buf[4096];
    for (;;) {
      const net::FrameDecoder::Status status = decoder_.next(out);
      if (status == net::FrameDecoder::Status::kFrame) return true;
      if (status == net::FrameDecoder::Status::kError) return false;
      const net::IoResult io = net::readSome(fd_.get(), buf, sizeof(buf));
      if (io.eof || io.error != 0) return false;
      decoder_.feed(buf, static_cast<size_t>(io.n));
    }
  }

 private:
  net::Fd fd_;
  net::FrameDecoder decoder_;
};

TEST(IsolatedServer, DrainWhileWorkerHungLosesNoResponse) {
  AVIV_SKIP_UNDER_TSAN();
  PoolConfig poolConfig;
  poolConfig.workers = 1;
  poolConfig.hardDeadlineMs = 400;
  poolConfig.heartbeatTimeoutMs = 5000;
  poolConfig.crashLoopK = 10;
  poolConfig.respawnBackoffMs = 20;
  poolConfig.env.cacheEnabled = false;
  // The single worker hangs on its first request; its respawn is clean.
  FailPoints::instance().configure("worker-hang");
  auto pool = std::make_shared<WorkerPool>(poolConfig);
  FailPoints::instance().clear();

  net::ServerConfig serverConfig;
  serverConfig.listen = uniqueUnixEndpoint();
  serverConfig.pollIntervalMs = 10;
  serverConfig.drainTimeoutMs = 20000;
  ThreadPool threads(2);
  net::CompileServer server(serverConfig, threads, poolHandler(pool));
  const net::Endpoint bound = server.start();
  std::thread serveThread([&server] { server.serve(); });

  Client client(bound);
  client.sendRequest(7, "machine=arch1 block=ex1");
  // Let the request reach the hung worker, then ask for shutdown while it
  // is still in flight: drain must wait out the SIGKILL + retry.
  std::this_thread::sleep_for(150ms);
  server.requestStop();

  net::Frame frame;
  ASSERT_TRUE(client.recvFrame(&frame)) << "response lost across drain";
  EXPECT_EQ(frame.type, net::FrameType::kOk);
  const net::ResponsePayload response =
      net::decodeResponsePayload(frame.payload);
  EXPECT_EQ(response.id, 7u);
  EXPECT_NE(response.detail.find("crashed=1"), std::string::npos)
      << response.detail;

  serveThread.join();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, 1);
  EXPECT_EQ(stats.droppedResponses, 0);
  EXPECT_EQ(stats.crashRetried, 1);
  EXPECT_EQ(pool->stats().deadlineKills, 1u);
}

TEST(IsolatedServer, CleanRequestsFlowThroughThePool) {
  AVIV_SKIP_UNDER_TSAN();
  PoolConfig poolConfig;
  poolConfig.workers = 2;
  poolConfig.env.cacheEnabled = false;
  auto pool = std::make_shared<WorkerPool>(poolConfig);

  net::ServerConfig serverConfig;
  serverConfig.listen = uniqueUnixEndpoint();
  serverConfig.pollIntervalMs = 10;
  ThreadPool threads(2);
  net::CompileServer server(serverConfig, threads, poolHandler(pool));
  const net::Endpoint bound = server.start();
  std::thread serveThread([&server] { server.serve(); });

  Client client(bound);
  client.sendRequest(1, "machine=arch1 block=ex1");
  client.sendRequest(2, "machine=arch1 block=ex1 timeout=2");
  for (int i = 0; i < 2; ++i) {
    net::Frame frame;
    ASSERT_TRUE(client.recvFrame(&frame));
    EXPECT_EQ(frame.type, net::FrameType::kOk);
    const net::ResponsePayload response =
        net::decodeResponsePayload(frame.payload);
    EXPECT_NE(response.detail.find("block=ex1"), std::string::npos);
  }
  server.requestStop();
  serveThread.join();
  EXPECT_EQ(server.stats().droppedResponses, 0);
}

}  // namespace
}  // namespace aviv::proc
