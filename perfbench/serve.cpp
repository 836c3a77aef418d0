#include "serve.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/socket.h"
#include "support/error.h"

namespace avivbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Blocking write of the whole buffer on a (possibly non-blocking) fd.
void writeAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const net::IoResult io = net::writeSome(fd, data.data() + off,
                                            data.size() - off);
    if (io.error != 0) throw std::runtime_error("probe write failed");
    if (io.wouldBlock) {
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, 100);
      continue;
    }
    off += static_cast<size_t>(io.n);
  }
}

// One blocking request/response round trip on a fresh connection.
net::ResponsePayload roundTrip(const std::string& socketPath,
                               const std::string& line,
                               net::FrameType* type) {
  net::Fd fd = net::connectTo(net::parseEndpoint("unix:" + socketPath));
  writeAll(fd.get(), net::encodeFrame(net::FrameType::kRequest,
                                      net::encodeRequestPayload({1, true,
                                                                 line})));
  net::FrameDecoder decoder;
  char buf[65536];
  const int64_t deadline = nowNs() + 60'000'000'000;
  for (;;) {
    net::Frame frame;
    const auto status = decoder.next(&frame);
    if (status == net::FrameDecoder::Status::kFrame) {
      *type = frame.type;
      return net::decodeResponsePayload(frame.payload);
    }
    if (status == net::FrameDecoder::Status::kError)
      throw std::runtime_error("probe: " + decoder.error());
    if (nowNs() > deadline) throw std::runtime_error("probe: no answer");
    pollfd p{fd.get(), POLLIN, 0};
    (void)::poll(&p, 1, 100);
    const net::IoResult io = net::readSome(fd.get(), buf, sizeof(buf));
    if (io.eof || io.error != 0)
      throw std::runtime_error("probe: connection closed");
    if (io.n > 0) decoder.feed(buf, static_cast<size_t>(io.n));
  }
}

std::vector<pid_t> childrenOf(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 2));
    std::string state;
    pid_t ppid = 0;
    fields >> state >> ppid;
    if (ppid == parent) out.push_back(pid);
  }
  ::closedir(dir);
  return out;
}

// utime+stime (plus cutime+cstime when `withReaped`) in seconds.
double cpuOf(pid_t pid, bool withReaped) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  // Fields 3..17 of /proc/<pid>/stat, see proc(5): state, ppid, pgrp, sid,
  // tty, tpgid, flags, 4 fault counts, utime, stime, cutime, cstime.
  std::string skip;
  for (int i = 3; i <= 13; ++i) fields >> skip;
  long long utime = 0, stime = 0, cutime = 0, cstime = 0;
  fields >> utime >> stime >> cutime >> cstime;
  long long ticks = utime + stime;
  if (withReaped) ticks += cutime + cstime;
  return static_cast<double>(ticks) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double hwmMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

}  // namespace

CpuTicks cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
          softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return {user + nice + system + irq + softirq, steal};
}

int parseInstrs(const std::string& detail) {
  const size_t at = detail.find("instrs=");
  if (at == std::string::npos) return -1;
  return std::atoi(detail.c_str() + at + 7);
}

Daemon startDaemon(const std::string& avivd,
                   const std::vector<std::string>& args,
                   const std::string& socketPath, const std::string& logPath,
                   const std::string& probeLine) {
  std::vector<std::string> argv{avivd, "--listen", "unix:" + socketPath};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  Daemon d;
  d.socketPath = socketPath;
  d.logPath = logPath;
  d.pid = ::fork();
  if (d.pid < 0) throw std::runtime_error("fork failed");
  if (d.pid == 0) {
    const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(avivd.c_str(), cargv.data());
    ::_exit(127);
  }
  const int64_t deadline = nowNs() + 30'000'000'000;
  for (;;) {
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
      d.pid = -1;
      throw std::runtime_error("avivd exited during start-up (see " +
                               logPath + ")");
    }
    try {
      net::FrameType type = net::FrameType::kError;
      (void)roundTrip(socketPath, probeLine, &type);
      if (type != net::FrameType::kOk && type != net::FrameType::kHit) {
        stopDaemon(d);
        throw std::runtime_error("avivd: probe request failed");
      }
      return d;
    } catch (const aviv::Error&) {
      // Not listening yet.
    }
    if (nowNs() > deadline) {
      stopDaemon(d);
      throw std::runtime_error("avivd did not answer within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int stopDaemon(Daemon& daemon) {
  if (daemon.pid <= 0) return 0;
  ::kill(daemon.pid, SIGTERM);
  int status = 0;
  const int64_t deadline = nowNs() + 20'000'000'000;
  while (::waitpid(daemon.pid, &status, WNOHANG) != daemon.pid) {
    if (nowNs() > deadline) {
      ::kill(daemon.pid, SIGKILL);
      (void)::waitpid(daemon.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.pid = -1;
  ::unlink(daemon.socketPath.c_str());
  return status;
}

ProcUsage procUsage(pid_t daemon) {
  ProcUsage usage;
  usage.cpuSeconds = cpuOf(daemon, true);
  usage.peakRssMb = hwmMbOf(daemon);
  usage.processes = 1;
  for (const pid_t child : childrenOf(daemon)) {
    usage.cpuSeconds += cpuOf(child, false);
    usage.peakRssMb += hwmMbOf(child);
    ++usage.processes;
  }
  return usage;
}

LoadResult runLoad(const Workload& w, const std::vector<int>& order,
                   bool openLoop, bool cycle, double seconds,
                   const std::string& socketPath, Served& served) {
  struct Conn {
    net::Fd fd;
    std::string out;
    size_t outPos = 0;
    net::FrameDecoder decoder;
    bool dead = false;
  };
  struct Pending {
    int line = 0;
    size_t pos = 0;
    int64_t dueNs = 0;
    int64_t sendNs = 0;
  };
  LoadResult result;
  if (order.empty()) return result;
  constexpr int kConns = 2;
  Conn conns[kConns];
  for (Conn& c : conns) {
    c.fd = net::connectTo(net::parseEndpoint("unix:" + socketPath));
    net::setNonBlocking(c.fd.get());
  }
  std::unordered_map<uint64_t, Pending> pending;
  uint64_t nextId = 1;
  size_t nextPos = 0;
  const int64_t t0 = nowNs();
  const int64_t endNs = t0 + static_cast<int64_t>(seconds * 1e9);
  const double periodNs = openLoop ? 1e9 / w.rate : 0.0;
  result.ticksBegin = cpuTicks();

  auto flush = [&](Conn& c) {
    while (c.outPos < c.out.size()) {
      const net::IoResult io = net::writeSome(
          c.fd.get(), c.out.data() + c.outPos, c.out.size() - c.outPos);
      if (io.wouldBlock) return;
      if (io.error != 0) {
        c.dead = true;
        ++result.transportErrors;
        return;
      }
      c.outPos += static_cast<size_t>(io.n);
    }
    c.out.clear();
    c.outPos = 0;
  };
  auto moreToSend = [&](int64_t now) {
    if (openLoop || !cycle) return nextPos < order.size();
    return now < endNs;
  };
  auto send = [&](Conn& c, int64_t dueNs) {
    const size_t pos = nextPos++;
    const int line = order[pos % order.size()];
    const uint64_t id = nextId++;
    const int64_t c0 = nowNs();
    const std::string frame = net::encodeFrame(
        net::FrameType::kRequest,
        net::encodeRequestPayload({id, true, w.lines[static_cast<size_t>(line)]}));
    const int64_t sendNs = nowNs();
    result.codecUs += static_cast<double>(sendNs - c0) / 1e3;
    c.out += frame;
    pending[id] = {line, pos, dueNs == 0 ? sendNs : dueNs, sendNs};
    ++result.issued;
    flush(c);
  };
  auto receive = [&](const net::Frame& frame, int64_t recvNs) {
    const int64_t c0 = nowNs();
    const net::ResponsePayload r = net::decodeResponsePayload(frame.payload);
    result.codecUs += static_cast<double>(nowNs() - c0) / 1e3;
    const auto it = pending.find(r.id);
    if (it == pending.end()) {
      ++result.transportErrors;
      return;
    }
    const Pending p = it->second;
    pending.erase(it);
    Sample s;
    s.line = p.line;
    s.pos = p.pos;
    s.type = frame.type;
    s.latencyUs = static_cast<double>(recvNs - p.dueNs) / 1e3;
    s.sendToRecvUs = static_cast<double>(recvNs - p.sendNs) / 1e3;
    s.lagUs = static_cast<double>(p.sendNs - p.dueNs) / 1e3;
    s.wallUs = r.wallMicros;
    s.queueUs = r.queueMicros;
    if (frame.type == net::FrameType::kOk ||
        frame.type == net::FrameType::kHit ||
        frame.type == net::FrameType::kDegraded) {
      const auto line = static_cast<size_t>(p.line);
      const int instrs = parseInstrs(r.detail);
      if (served.instrs[line] < 0) {
        served.instrs[line] = instrs;
        served.body[line] = r.body;
      } else if (served.instrs[line] != instrs || served.body[line] != r.body) {
        s.wrongOutput = true;
      }
      if (instrs < 0 || r.body.empty()) s.wrongOutput = true;
    }
    result.samples.push_back(s);
  };

  // Closed loop: `depth` requests per connection to start.
  if (!openLoop)
    for (int d = 0; d < w.depth; ++d)
      for (Conn& c : conns)
        if (moreToSend(nowNs())) send(c, 0);

  char buf[1 << 16];
  int64_t lastProgress = nowNs();
  for (;;) {
    int64_t now = nowNs();
    if (openLoop) {
      while (nextPos < order.size()) {
        const int64_t due = t0 + static_cast<int64_t>(
                                     static_cast<double>(nextPos) * periodNs);
        if (due > now) break;
        Conn& c = conns[nextPos % kConns];
        if (c.dead) break;
        send(c, due);
        now = nowNs();
      }
    }
    if (!moreToSend(now) && pending.empty()) break;
    if (conns[0].dead && conns[1].dead) break;
    if (now - lastProgress > 60'000'000'000) break;  // stalled: rest is lost

    pollfd fds[kConns];
    for (int i = 0; i < kConns; ++i) {
      fds[i].fd = conns[i].dead ? -1 : conns[i].fd.get();
      fds[i].events = POLLIN;
      if (conns[i].outPos < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{0, 100'000'000};
    if (openLoop && nextPos < order.size()) {
      const int64_t due = t0 + static_cast<int64_t>(
                                   static_cast<double>(nextPos) * periodNs);
      const int64_t wait = std::max<int64_t>(0, due - nowNs());
      ts = {static_cast<time_t>(wait / 1'000'000'000),
            static_cast<long>(wait % 1'000'000'000)};
    }
    if (::ppoll(fds, kConns, &ts, nullptr) <= 0) continue;
    const int64_t recvNs = nowNs();
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns[i];
      if (c.dead) continue;
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const net::IoResult io = net::readSome(c.fd.get(), buf, sizeof(buf));
      if (io.eof || io.error != 0) {
        c.dead = true;
        ++result.transportErrors;
        continue;
      }
      if (io.n <= 0) continue;
      c.decoder.feed(buf, static_cast<size_t>(io.n));
      net::Frame frame;
      for (;;) {
        const auto status = c.decoder.next(&frame);
        if (status == net::FrameDecoder::Status::kNeedMore) break;
        if (status == net::FrameDecoder::Status::kError) {
          c.dead = true;
          ++result.transportErrors;
          break;
        }
        receive(frame, recvNs);
        lastProgress = recvNs;
        if (!openLoop && moreToSend(nowNs())) send(c, 0);
      }
    }
  }
  result.seconds = static_cast<double>(nowNs() - t0) / 1e9;
  result.ticksEnd = cpuTicks();
  result.lost = static_cast<int>(pending.size());
  return result;
}

}  // namespace avivbench
