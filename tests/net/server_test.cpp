// CompileServer integration tests: a real server on a real socket (unix and
// TCP), a blocking test client speaking the frame
// protocol, admission-control shedding, graceful drain with zero lost
// responses, protocol-violation handling, torn-close accounting, and the
// net-accept / net-read / net-write fault-injection sites.
#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"

namespace aviv::net {
namespace {

using namespace std::chrono_literals;

Endpoint uniqueUnixEndpoint() {
  static int counter = 0;
  Endpoint endpoint;
  endpoint.isUnix = true;
  endpoint.path = "/tmp/aviv_net_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(++counter) + ".sock";
  return endpoint;
}

// Echo-style handler: answers kOk with the request line as detail, after an
// optional artificial service time (to make admission control observable).
RequestHandler echoHandler(std::chrono::milliseconds delay = 0ms) {
  return [delay](const NetRequest& request) {
    if (delay > 0ms) std::this_thread::sleep_for(delay);
    NetResponse response;
    response.type = FrameType::kOk;
    response.detail = request.line;
    response.body = request.wantAsm ? "asm for " + request.line : "";
    return response;
  };
}

// Owns a server + its serve() thread; stop() is idempotent.
class TestServer {
 public:
  TestServer(ServerConfig config, RequestHandler handler, int poolSize = 2)
      : pool_(poolSize) {
    config.pollIntervalMs = 10;
    server_ = std::make_unique<CompileServer>(std::move(config), pool_,
                                              std::move(handler));
    bound_ = server_->start();
    thread_ = std::thread([this] { server_->serve(); });
  }
  ~TestServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }

  [[nodiscard]] const Endpoint& bound() const { return bound_; }
  [[nodiscard]] CompileServer& server() { return *server_; }

 private:
  ThreadPool pool_;
  std::unique_ptr<CompileServer> server_;
  Endpoint bound_;
  std::thread thread_;
};

// Minimal blocking client for tests.
class Client {
 public:
  explicit Client(const Endpoint& endpoint) : fd_(connectTo(endpoint)) {}

  void sendBytes(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const IoResult io =
          writeSome(fd_.get(), bytes.data() + off, bytes.size() - off);
      ASSERT_EQ(io.error, 0);
      off += static_cast<size_t>(io.n);
    }
  }

  void sendRequest(uint64_t id, const std::string& line,
                   bool wantAsm = false) {
    RequestPayload payload;
    payload.id = id;
    payload.wantAsm = wantAsm;
    payload.line = line;
    sendBytes(encodeFrame(FrameType::kRequest, encodeRequestPayload(payload)));
  }

  // Blocking receive of the next frame; sets eof instead when the server
  // closed cleanly between frames.
  bool recvFrame(Frame* out) {
    char buf[4096];
    for (;;) {
      const FrameDecoder::Status status = decoder_.next(out);
      if (status == FrameDecoder::Status::kFrame) return true;
      EXPECT_NE(status, FrameDecoder::Status::kError) << decoder_.error();
      if (status == FrameDecoder::Status::kError) return false;
      const IoResult io = readSome(fd_.get(), buf, sizeof(buf));
      if (io.eof || io.error != 0) return false;
      decoder_.feed(buf, static_cast<size_t>(io.n));
    }
  }

  // Like sendRequest, to a connection the server drops on accept: the drop
  // may land before this write, so a failed write (EPIPE) is expected here.
  void sendRequestMaybeDropped(uint64_t id, const std::string& line) {
    RequestPayload payload;
    payload.id = id;
    payload.line = line;
    const std::string frame =
        encodeFrame(FrameType::kRequest, encodeRequestPayload(payload));
    (void)writeSome(fd_.get(), frame.data(), frame.size());
  }

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  FrameDecoder decoder_;
};

void waitFor(const std::function<bool()>& predicate, int timeoutMs = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (!predicate()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for condition";
    std::this_thread::sleep_for(2ms);
  }
}

TEST(NetServer, ServesRequestsOverUnixSocket) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());

  Client client(server.bound());
  client.sendRequest(1, "alpha");
  client.sendRequest(2, "beta", /*wantAsm=*/true);
  for (int i = 0; i < 2; ++i) {
    Frame frame;
    ASSERT_TRUE(client.recvFrame(&frame));
    EXPECT_EQ(frame.type, FrameType::kOk);
    const ResponsePayload payload = decodeResponsePayload(frame.payload);
    if (payload.id == 1) {
      EXPECT_EQ(payload.detail, "alpha");
      EXPECT_TRUE(payload.body.empty());
    } else {
      EXPECT_EQ(payload.id, 2u);
      EXPECT_EQ(payload.detail, "beta");
      EXPECT_EQ(payload.body, "asm for beta");
    }
  }
  client.close();
  server.stop();
  const ServerStats stats = server.server().stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.responses, 2);
  EXPECT_EQ(stats.ok, 2);
  EXPECT_EQ(stats.droppedResponses, 0);
}

TEST(NetServer, ServesOverTcpWithEphemeralPort) {
  ServerConfig config;
  config.listen = parseEndpoint("127.0.0.1:0");
  TestServer server(config, echoHandler());
  ASSERT_NE(server.bound().port, 0) << "kernel should assign a real port";

  Client client(server.bound());
  client.sendRequest(7, "tcp line");
  Frame frame;
  ASSERT_TRUE(client.recvFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kOk);
  EXPECT_EQ(decodeResponsePayload(frame.payload).id, 7u);
}

TEST(NetServer, QueueCapOneShedsWithRetryAfter) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  config.queueCapacity = 1;
  config.retryAfterMs = 7;
  TestServer server(config, echoHandler(100ms));

  Client client(server.bound());
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i)
    client.sendRequest(static_cast<uint64_t>(i + 1), "burst");
  int okCount = 0;
  int shedCount = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(client.recvFrame(&frame));
    if (frame.type == FrameType::kRetryAfter) {
      ++shedCount;
      const ResponsePayload payload = decodeResponsePayload(frame.payload);
      EXPECT_NE(payload.detail.find("retry after 7ms"), std::string::npos);
    } else {
      EXPECT_EQ(frame.type, FrameType::kOk);
      ++okCount;
    }
  }
  // 2 workers + 1 queue slot: a 12-deep burst must shed at least once, and
  // admitted requests must all complete.
  EXPECT_GT(shedCount, 0);
  EXPECT_GT(okCount, 0);
  EXPECT_EQ(okCount + shedCount, kBurst);
  server.stop();
  const ServerStats stats = server.server().stats();
  EXPECT_EQ(stats.shed, shedCount);
  EXPECT_LE(stats.maxQueueDepth, 1);
}

TEST(NetServer, DrainFinishesInFlightRequestsWithZeroLoss) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler(50ms));

  Client client(server.bound());
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i)
    client.sendRequest(static_cast<uint64_t>(i + 1), "draining");
  // Wait until every request is admitted, then stop mid-flight: the drain
  // contract is that all admitted requests still get their responses.
  waitFor([&] { return server.server().stats().requests == kRequests; });
  server.stop();

  int received = 0;
  Frame frame;
  while (client.recvFrame(&frame)) {
    EXPECT_EQ(frame.type, FrameType::kOk);
    ++received;
  }
  EXPECT_EQ(received, kRequests);  // then clean EOF, nothing lost
  const ServerStats stats = server.server().stats();
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.droppedResponses, 0);
}

TEST(NetServer, MalformedFrameGetsErrorResponseAndClose) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());

  Client client(server.bound());
  client.sendBytes(std::string(64, 'X'));  // not a frame
  Frame frame;
  ASSERT_TRUE(client.recvFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(decodeResponsePayload(frame.payload).detail.find("magic"),
            std::string::npos);
  EXPECT_FALSE(client.recvFrame(&frame));  // server closed the connection
  waitFor([&] { return server.server().stats().frameErrors > 0; });
}

TEST(NetServer, OversizedDeclaredPayloadRejected) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  config.maxFrameBytes = 1024;
  TestServer server(config, echoHandler());

  Client client(server.bound());
  RequestPayload payload;
  payload.id = 1;
  payload.line = std::string(4096, 'a');
  client.sendBytes(
      encodeFrame(FrameType::kRequest, encodeRequestPayload(payload)));
  Frame frame;
  ASSERT_TRUE(client.recvFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(decodeResponsePayload(frame.payload).detail.find("exceeds cap"),
            std::string::npos);
  EXPECT_FALSE(client.recvFrame(&frame));
}

TEST(NetServer, TornMidFrameCloseIsCounted) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());
  {
    Client client(server.bound());
    const std::string bytes =
        encodeFrame(FrameType::kRequest,
                    encodeRequestPayload({1, false, "half a request"}));
    client.sendBytes(bytes.substr(0, bytes.size() - 5));
    waitFor([&] { return server.server().stats().accepted == 1; });
    client.close();  // torn: mid-frame bytes are buffered server-side
  }
  waitFor([&] { return server.server().stats().tornConnections == 1; });
}

TEST(NetServer, HalfCloseStillAnswersAdmittedRequests) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler(20ms));

  Endpoint endpoint = server.bound();
  Fd fd = connectTo(endpoint);
  RequestPayload payload;
  payload.id = 9;
  payload.line = "half close";
  const std::string bytes =
      encodeFrame(FrameType::kRequest, encodeRequestPayload(payload));
  size_t off = 0;
  while (off < bytes.size()) {
    const IoResult io =
        writeSome(fd.get(), bytes.data() + off, bytes.size() - off);
    ASSERT_EQ(io.error, 0);
    off += static_cast<size_t>(io.n);
  }
  ::shutdown(fd.get(), SHUT_WR);  // done sending; still reading

  FrameDecoder decoder;
  Frame frame;
  char buf[4096];
  bool gotFrame = false;
  for (;;) {
    if (decoder.next(&frame) == FrameDecoder::Status::kFrame) {
      gotFrame = true;
      break;
    }
    const IoResult io = readSome(fd.get(), buf, sizeof(buf));
    if (io.eof || io.error != 0) break;
    decoder.feed(buf, static_cast<size_t>(io.n));
  }
  ASSERT_TRUE(gotFrame);
  EXPECT_EQ(frame.type, FrameType::kOk);
  EXPECT_EQ(decodeResponsePayload(frame.payload).id, 9u);
}

TEST(NetServer, NetReadFailpointDropsConnectionServerSurvives) {
  FailPoints::instance().configure("net-read:1:1");
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());

  Client victim(server.bound());
  victim.sendRequest(1, "doomed");
  Frame frame;
  EXPECT_FALSE(victim.recvFrame(&frame));  // injected read error: dropped
  FailPoints::instance().clear();

  Client survivor(server.bound());
  survivor.sendRequest(2, "alive");
  ASSERT_TRUE(survivor.recvFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kOk);
  server.stop();
  EXPECT_EQ(server.server().stats().readErrors, 1);
}

TEST(NetServer, NetAcceptFailpointDropsConnectionServerSurvives) {
  FailPoints::instance().configure("net-accept:1:1");
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());

  Client victim(server.bound());
  victim.sendRequestMaybeDropped(1, "never admitted");
  Frame frame;
  EXPECT_FALSE(victim.recvFrame(&frame));
  FailPoints::instance().clear();

  Client survivor(server.bound());
  survivor.sendRequest(2, "alive");
  ASSERT_TRUE(survivor.recvFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kOk);
  server.stop();
  EXPECT_EQ(server.server().stats().acceptErrors, 1);
}

TEST(NetServer, NetWriteFailpointIsTransientResponseStillArrives) {
  FailPoints::instance().configure("net-write:1:1");
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler());

  Client client(server.bound());
  client.sendRequest(1, "retried write");
  Frame frame;
  ASSERT_TRUE(client.recvFrame(&frame));  // retried on next writable event
  EXPECT_EQ(frame.type, FrameType::kOk);
  EXPECT_EQ(decodeResponsePayload(frame.payload).detail, "retried write");
  FailPoints::instance().clear();
  server.stop();
  EXPECT_EQ(server.server().stats().writeErrors, 1);
}

TEST(NetServer, ManyConnectionsEachGetTheirOwnAnswers) {
  ServerConfig config;
  config.listen = uniqueUnixEndpoint();
  TestServer server(config, echoHandler(), /*poolSize=*/4);

  constexpr int kConns = 32;
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(std::make_unique<Client>(server.bound()));
    clients.back()->sendRequest(static_cast<uint64_t>(i),
                                "conn " + std::to_string(i));
  }
  for (int i = 0; i < kConns; ++i) {
    Frame frame;
    ASSERT_TRUE(clients[i]->recvFrame(&frame));
    const ResponsePayload payload = decodeResponsePayload(frame.payload);
    EXPECT_EQ(payload.id, static_cast<uint64_t>(i));
    EXPECT_EQ(payload.detail, "conn " + std::to_string(i));
  }
}

TEST(NetServer, ParseEndpointGrammar) {
  const Endpoint unix_ = parseEndpoint("unix:/tmp/x.sock");
  EXPECT_TRUE(unix_.isUnix);
  EXPECT_EQ(unix_.path, "/tmp/x.sock");
  const Endpoint tcp = parseEndpoint("127.0.0.1:7070");
  EXPECT_FALSE(tcp.isUnix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7070);
  const Endpoint bare = parseEndpoint(":8080");
  EXPECT_EQ(bare.host, "127.0.0.1");
  EXPECT_EQ(bare.port, 8080);
  EXPECT_THROW(parseEndpoint("no-port-here"), Error);
  EXPECT_THROW(parseEndpoint("host:notaport"), Error);
}

}  // namespace
}  // namespace aviv::net
