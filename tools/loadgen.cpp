// loadgen — multi-connection load generator for the avivd compile server
// (src/net, docs/server.md). Drives many concurrent connections from one
// event-loop thread, speaks the framed wire protocol, and reports latency
// percentiles, per-type response counts, shed rate, and throughput — the
// client-side half of every server-smoke assertion (the script cross-checks
// these numbers against the server's own summary).
//
//   loadgen --connect <unix:PATH|HOST:PORT> [options]
//
// The loop is closed: each connection keeps up to --pipeline requests in
// flight and sends the next one as soon as a response arrives.
//
// Options:
//   --connections N   concurrent connections (default 1)
//   --requests N      total requests to issue (default 100)
//   --pipeline P      per-connection in-flight cap (default 1)
//   --batch FILE      request lines to cycle through (default a single
//                     "machine=arch1 block=ex1")
//   --want-asm        request assembly bodies
//   --dump-asm        print each response body to stdout (arrival order)
//   --json FILE       write the stats report as JSON
//   --stall-timeout-ms N    exit nonzero if no response arrives for this
//                     long while requests are outstanding (default 30000)
//
// Exit status: 0 when every issued request was answered and no transport
// or protocol error occurred (RETRY_AFTER sheds are NOT errors — they are
// the server's admission control working as designed and are reported
// separately); 1 otherwise.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/io.h"
#include "support/strings.h"
#include "support/timer.h"

namespace {

using namespace aviv;
using namespace aviv::net;

struct Sample {
  double atSeconds = 0;   // completion time, offset from run start
  double latencyUs = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

struct Conn {
  uint64_t id = 0;
  Fd fd;
  FrameDecoder decoder;
  std::string outbuf;
  size_t outPos = 0;
  int outstanding = 0;
  bool dead = false;

  [[nodiscard]] size_t pendingOut() const { return outbuf.size() - outPos; }
};

class LoadGen {
 public:
  struct Options {
    Endpoint endpoint;
    int connections = 1;
    int64_t totalRequests = 100;
    int pipeline = 1;
    std::vector<std::string> lines;
    bool wantAsm = false;
    bool dumpAsm = false;
    int stallTimeoutMs = 30000;
  };

  explicit LoadGen(Options options) : options_(std::move(options)) {}

  int run();

  // Aggregated results, valid after run().
  int64_t issued = 0;
  int64_t responses = 0;
  int64_t okCount = 0;
  int64_t hitCount = 0;
  int64_t degradedCount = 0;
  int64_t quarantinedCount = 0;
  int64_t errorCount = 0;
  int64_t shedCount = 0;
  int64_t transportErrors = 0;
  int64_t protocolErrors = 0;
  int64_t lost = 0;
  double wallSeconds = 0;
  std::vector<Sample> samples;
  std::vector<std::string> errorDetails;  // first few kError details

 private:
  void sendRequest(Conn& conn);
  void onEvent(Conn& conn, uint32_t ready);
  void flush(Conn& conn);
  void handleResponse(Conn& conn, const Frame& frame);
  void failConn(Conn& conn, const std::string& why);
  [[nodiscard]] bool done() const;

  Options options_;
  EventLoop loop_;
  WallTimer clock_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unordered_map<uint64_t, double> sendTimes_;  // id -> send seconds
  uint64_t nextId_ = 1;
};

void LoadGen::sendRequest(Conn& conn) {
  RequestPayload payload;
  payload.id = nextId_++;
  payload.wantAsm = options_.wantAsm;
  payload.line = options_.lines[(payload.id - 1) % options_.lines.size()];
  sendTimes_[payload.id] = clock_.seconds();
  conn.outbuf.append(
      encodeFrame(FrameType::kRequest, encodeRequestPayload(payload)));
  ++conn.outstanding;
  ++issued;
  flush(conn);
}

void LoadGen::failConn(Conn& conn, const std::string& why) {
  if (conn.dead) return;
  conn.dead = true;
  ++transportErrors;
  lost += conn.outstanding;
  conn.outstanding = 0;
  if (errorDetails.size() < 5) errorDetails.push_back(why);
  loop_.remove(conn.fd.get());
  conn.fd.reset();
}

void LoadGen::flush(Conn& conn) {
  if (conn.dead) return;
  while (conn.pendingOut() > 0) {
    const IoResult io =
        writeSome(conn.fd.get(), conn.outbuf.data() + conn.outPos,
                  conn.pendingOut());
    if (io.wouldBlock) break;
    if (io.error != 0) {
      failConn(conn, "write error");
      return;
    }
    conn.outPos += static_cast<size_t>(io.n);
  }
  if (conn.pendingOut() == 0) {
    conn.outbuf.clear();
    conn.outPos = 0;
  }
  loop_.modify(conn.fd.get(),
               EventLoop::kRead |
                   (conn.pendingOut() > 0 ? EventLoop::kWrite : 0u));
}

void LoadGen::handleResponse(Conn& conn, const Frame& frame) {
  ResponsePayload payload;
  try {
    payload = decodeResponsePayload(frame.payload);
  } catch (const Error&) {
    ++protocolErrors;
    failConn(conn, "undecodable response payload");
    return;
  }
  ++responses;
  --conn.outstanding;
  const auto sent = sendTimes_.find(payload.id);
  if (sent != sendTimes_.end()) {
    const double now = clock_.seconds();
    samples.push_back({now, (now - sent->second) * 1e6});
    sendTimes_.erase(sent);
  }
  switch (frame.type) {
    case FrameType::kOk: ++okCount; break;
    case FrameType::kHit: ++hitCount; break;
    case FrameType::kDegraded: ++degradedCount; break;
    case FrameType::kQuarantined: ++quarantinedCount; break;
    case FrameType::kRetryAfter: ++shedCount; break;
    case FrameType::kError:
      ++errorCount;
      if (errorDetails.size() < 5) errorDetails.push_back(payload.detail);
      break;
    default:
      ++protocolErrors;
      failConn(conn, "unexpected frame type");
      return;
  }
  if (options_.dumpAsm && !payload.body.empty())
    std::fwrite(payload.body.data(), 1, payload.body.size(), stdout);
  // Closed loop: a completed request immediately funds the next one.
  if (issued < options_.totalRequests && conn.outstanding < options_.pipeline)
    sendRequest(conn);
}

void LoadGen::onEvent(Conn& conn, uint32_t ready) {
  if (conn.dead) return;
  if ((ready & EventLoop::kWrite) != 0) flush(conn);
  if (conn.dead || (ready & EventLoop::kRead) == 0) return;
  char buf[64 << 10];
  for (;;) {
    const IoResult io = readSome(conn.fd.get(), buf, sizeof(buf));
    if (io.wouldBlock) return;
    if (io.error != 0) {
      failConn(conn, "read error");
      return;
    }
    if (io.eof) {
      if (conn.outstanding > 0)
        failConn(conn, "server closed with requests outstanding");
      else {
        conn.dead = true;
        loop_.remove(conn.fd.get());
        conn.fd.reset();
      }
      return;
    }
    conn.decoder.feed(buf, static_cast<size_t>(io.n));
    Frame frame;
    for (;;) {
      const FrameDecoder::Status status = conn.decoder.next(&frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        ++protocolErrors;
        failConn(conn, conn.decoder.error());
        return;
      }
      handleResponse(conn, frame);
      if (conn.dead) return;
    }
  }
}

bool LoadGen::done() const {
  int64_t outstanding = 0;
  for (const auto& conn : conns_) outstanding += conn->outstanding;
  return issued >= options_.totalRequests && outstanding == 0;
}

int LoadGen::run() {
  raiseFdLimit();
  conns_.reserve(static_cast<size_t>(options_.connections));
  for (int i = 0; i < options_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->id = static_cast<uint64_t>(i);
    conn->fd = connectTo(options_.endpoint);
    setNonBlocking(conn->fd.get());
    Conn* raw = conn.get();
    loop_.add(conn->fd.get(), EventLoop::kRead,
              [this, raw](uint32_t ready) { onEvent(*raw, ready); });
    conns_.push_back(std::move(conn));
  }

  clock_.reset();
  // Prime each connection up to its pipeline depth (bounded by the total).
  for (auto& conn : conns_) {
    for (int k = 0; k < options_.pipeline && issued < options_.totalRequests;
         ++k)
      sendRequest(*conn);
    if (issued >= options_.totalRequests) break;
  }

  double lastProgress = clock_.seconds();
  int64_t lastResponses = 0;
  while (!done()) {
    loop_.runOnce(50);

    if (responses != lastResponses) {
      lastResponses = responses;
      lastProgress = clock_.seconds();
    }
    bool anyLive = false;
    for (const auto& conn : conns_) anyLive = anyLive || !conn->dead;
    if (!anyLive) break;
    if ((clock_.seconds() - lastProgress) * 1e3 >
        static_cast<double>(options_.stallTimeoutMs)) {
      std::fprintf(stderr, "loadgen: stalled: no response for %d ms\n",
                   options_.stallTimeoutMs);
      break;
    }
  }
  wallSeconds = clock_.seconds();
  for (const auto& conn : conns_) lost += conn->outstanding;
  return (transportErrors == 0 && protocolErrors == 0 && lost == 0 &&
          responses == issued)
             ? 0
             : 1;
}

std::string statsJson(const LoadGen& gen, const LoadGen::Options& options) {
  std::vector<double> all;
  std::vector<double> firstHalf;
  std::vector<double> secondHalf;
  all.reserve(gen.samples.size());
  for (const Sample& sample : gen.samples) {
    all.push_back(sample.latencyUs);
    (sample.atSeconds < gen.wallSeconds / 2 ? firstHalf : secondHalf)
        .push_back(sample.latencyUs);
  }
  std::sort(all.begin(), all.end());
  std::sort(firstHalf.begin(), firstHalf.end());
  std::sort(secondHalf.begin(), secondHalf.end());
  double mean = 0;
  for (const double v : all) mean += v;
  if (!all.empty()) mean /= static_cast<double>(all.size());

  std::ostringstream out;
  out << "{\n";
  out << "  \"connections\": " << options.connections << ",\n";
  out << "  \"issued\": " << gen.issued << ",\n";
  out << "  \"responses\": " << gen.responses << ",\n";
  out << "  \"ok\": " << gen.okCount << ",\n";
  out << "  \"hit\": " << gen.hitCount << ",\n";
  out << "  \"degraded\": " << gen.degradedCount << ",\n";
  out << "  \"quarantined\": " << gen.quarantinedCount << ",\n";
  out << "  \"error\": " << gen.errorCount << ",\n";
  out << "  \"retry_after\": " << gen.shedCount << ",\n";
  out << "  \"transport_errors\": " << gen.transportErrors << ",\n";
  out << "  \"protocol_errors\": " << gen.protocolErrors << ",\n";
  out << "  \"lost\": " << gen.lost << ",\n";
  out << "  \"wall_seconds\": " << gen.wallSeconds << ",\n";
  out << "  \"throughput_rps\": "
      << (gen.wallSeconds > 0
              ? static_cast<double>(gen.responses) / gen.wallSeconds
              : 0)
      << ",\n";
  out << "  \"latency_us\": {\n";
  out << "    \"p50\": " << percentile(all, 0.50) << ",\n";
  out << "    \"p90\": " << percentile(all, 0.90) << ",\n";
  out << "    \"p99\": " << percentile(all, 0.99) << ",\n";
  out << "    \"max\": " << (all.empty() ? 0.0 : all.back()) << ",\n";
  out << "    \"mean\": " << mean << "\n";
  out << "  },\n";
  // Flat-p99 check: compare the run's first and second halves.
  out << "  \"p99_first_half_us\": " << percentile(firstHalf, 0.99) << ",\n";
  out << "  \"p99_second_half_us\": " << percentile(secondHalf, 0.99)
      << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    LoadGen::Options options;
    const std::string connectSpec = flags.getString("connect", "");
    if (connectSpec.empty())
      throw Error(
          "usage: loadgen --connect <unix:PATH|HOST:PORT> [--connections N] "
          "[--requests N] [--pipeline P] [--batch FILE] [--want-asm] "
          "[--dump-asm] [--json FILE] [--stall-timeout-ms N]");
    options.endpoint = parseEndpoint(connectSpec);
    options.connections = static_cast<int>(flags.getInt("connections", 1));
    options.totalRequests = flags.getInt("requests", 100);
    options.pipeline = static_cast<int>(flags.getInt("pipeline", 1));
    const std::string batchFile = flags.getString("batch", "");
    options.wantAsm = flags.getBool("want-asm", false);
    options.dumpAsm = flags.getBool("dump-asm", false);
    const std::string jsonOut = flags.getString("json", "");
    options.stallTimeoutMs =
        static_cast<int>(flags.getInt("stall-timeout-ms", 30000));
    flags.finish();

    if (!batchFile.empty()) {
      std::istringstream lines(readFile(batchFile));
      std::string line;
      while (std::getline(lines, line)) {
        const std::string_view stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#') continue;
        options.lines.emplace_back(stripped);
      }
      if (options.lines.empty())
        throw Error("--batch file has no request lines");
    } else {
      options.lines.emplace_back("machine=arch1 block=ex1");
    }
    if (options.connections < 1) throw Error("--connections must be >= 1");
    if (options.pipeline < 1) throw Error("--pipeline must be >= 1");

    std::signal(SIGPIPE, SIG_IGN);
    LoadGen gen(options);
    const int status = gen.run();
    const std::string report = statsJson(gen, options);
    if (!jsonOut.empty()) writeFile(jsonOut, report);
    std::fputs(report.c_str(), stderr);
    for (const std::string& detail : gen.errorDetails)
      std::fprintf(stderr, "loadgen: error detail: %s\n", detail.c_str());
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
}
