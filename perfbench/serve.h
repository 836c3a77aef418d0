// The served side of avivbench: spawning and stopping `avivd --listen`,
// accounting its CPU and memory (daemon plus worker children) from /proc,
// and a single-threaded two-connection client that drives it over the
// framed socket protocol (src/net/frame.h) in a closed or an open loop.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "workload.h"

namespace avivbench {

namespace net = aviv::net;

struct Daemon {
  pid_t pid = -1;
  std::string socketPath;
  std::string logPath;
};

// Starts avivd with `args` plus --listen on `socketPath` and returns once
// it has answered `probeLine`. Throws when it dies or does not answer.
[[nodiscard]] Daemon startDaemon(const std::string& avivd,
                                 const std::vector<std::string>& args,
                                 const std::string& socketPath,
                                 const std::string& logPath,
                                 const std::string& probeLine);

// SIGTERM (graceful drain), then SIGKILL after a grace period; always
// reaps. Returns the daemon's exit status as waitpid reports it.
int stopDaemon(Daemon& daemon);

struct ProcUsage {
  double cpuSeconds = 0.0;  // user+sys of daemon, live children, reaped ones
  double peakRssMb = 0.0;   // sum of VmHWM over daemon and live children
  int processes = 0;
};

[[nodiscard]] ProcUsage procUsage(pid_t daemon);

// One answered request of a load run.
struct Sample {
  int line = 0;
  size_t pos = 0;  // position in the send order (wrapping counts on)
  net::FrameType type = net::FrameType::kError;
  bool wrongOutput = false;  // body or instrs differ from the line's first
  double latencyUs = 0.0;    // from the due time (open) or send (closed)
  double sendToRecvUs = 0.0;
  double lagUs = 0.0;        // send - due (open loop)
  uint64_t wallUs = 0;
  uint64_t queueUs = 0;
};

// System-wide CPU ticks (/proc/stat) at one instant.
struct CpuTicks {
  int64_t busy = 0;   // user + nice + system + irq + softirq
  int64_t steal = 0;  // ticks the hypervisor took from a runnable vCPU
};

[[nodiscard]] CpuTicks cpuTicks();

struct LoadResult {
  std::vector<Sample> samples;
  double seconds = 0.0;  // from the first send to the last answer
  // At the window's start and end: the context of its timings on a
  // shared host.
  CpuTicks ticksBegin, ticksEnd;
  int issued = 0;
  int lost = 0;             // issued but never answered
  int transportErrors = 0;  // connection or protocol failures
  double codecUs = 0.0;     // client frame encode + decode, summed
};

// What the daemon served per line, filled from the first answer of each
// line; later answers must repeat it.
struct Served {
  std::vector<std::string> body;
  std::vector<int> instrs;  // -1 until answered
  explicit Served(size_t lines) : body(lines), instrs(lines, -1) {}
};

// Sends `order` (indices into w.lines) to the daemon. Closed loop:
// w.depth requests in flight per connection; with `cycle` the order wraps
// until `seconds` elapse. Open loop: entry i is due at t0 + i / w.rate and is
// timed from its due time.
[[nodiscard]] LoadResult runLoad(const Workload& w,
                                 const std::vector<int>& order, bool openLoop,
                                 bool cycle, double seconds,
                                 const std::string& socketPath,
                                 Served& served);

// The integer after "instrs=" in a status detail, or -1.
[[nodiscard]] int parseInstrs(const std::string& detail);

}  // namespace avivbench
