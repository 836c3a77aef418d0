#include "proc/crash_repro.h"

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "isdl/emit.h"
#include "isdl/parser.h"
#include "proc/worker.h"
#include "service/request.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace aviv::proc {

namespace fs = std::filesystem;

namespace {

// Directory-name-safe cause tag ("worker-segv", "sig9", "exit3").
std::string sanitize(std::string s) {
  for (char& c : s)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '-';
  return s.empty() ? std::string("unknown") : s;
}

// Resolved machine text, standalone: path specs copy the file verbatim,
// built-in names round-trip through the ISDL emitter (the same guarantee
// the fuzz bundles rely on).
std::string resolveMachineText(const std::string& spec) {
  if (endsWith(spec, ".isdl")) return readFile(spec);
  return emitMachineText(loadMachine(spec));
}

// Resolved block source plus the bundle-local file name that keeps its
// format (a .c block must replay through the Mini-C front end).
std::pair<std::string, std::string> resolveBlockText(const std::string& spec) {
  if (endsWith(spec, ".c")) return {readFile(spec), "block.c"};
  if (endsWith(spec, ".blk")) return {readFile(spec), kBundleBlockFile};
  return {readFile(blockPath(spec)), kBundleBlockFile};
}

// Rewrites machine=/block= values in a request line (whitespace-separated
// tokens) so the bundle replays against its own copies wherever it lives.
std::string rewriteLine(const std::string& line, const std::string& dir,
                        const std::string& blockFile) {
  std::istringstream tokens(line);
  std::string out;
  for (std::string token; tokens >> token;) {
    if (startsWith(token, "machine=")) {
      token = "machine=" + dir + "/" + kBundleMachineFile;
    } else if (startsWith(token, "block=")) {
      token = "block=" + dir + "/" + blockFile;
    }
    out += (out.empty() ? "" : " ") + token;
  }
  return out;
}

// The replay child's whole life. Only _exit()s — this is a fork child.
[[noreturn]] void runReplayChild(const CrashRepro& repro) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_IGN);
  if (!repro.failpointSite.empty())
    FailPoints::instance().configure(repro.failpointSite);
  // A worker-oom replay with no recorded cap would eat the machine; give
  // the child a ceiling regardless.
  uint64_t rss = repro.rssLimitBytes;
  if (rss == 0 && repro.failpointSite == "worker-oom") rss = 512ull << 20;
  applyWorkerLimits(rss, repro.cpuLimitSeconds);

  evalWorkerCrashPoints("");  // fires the recorded site, if any
  try {
    const RequestParse parse = parseRequestLine(repro.requestLine, 0, {});
    if (!parse.ok()) ::_exit(0);  // request invalid: nothing crashed
    RequestExecConfig exec;
    exec.wantAsm = repro.wantAsm;
    exec.retries = 0;
    TelemetryNode tel("replay");
    (void)executeRequest(*parse.request, exec, tel);
  } catch (...) {
    ::_exit(0);  // a caught failure is not a crash
  }
  // Torn-write crashes fire after the compile, on the respond path.
  if (FailPoints::instance().shouldFail("worker-torn-write")) ::_exit(3);
  ::_exit(0);
}

}  // namespace

std::string writeCrashRepro(const CrashCapture& capture) {
  if (capture.crashDir.empty()) return "";
  try {
    std::string cause;
    if (!capture.failpointSite.empty()) {
      cause = capture.failpointSite;
    } else if (capture.killedByDeadline) {
      cause = "kill";
    } else if (WIFSIGNALED(capture.exitStatus)) {
      cause = "sig" + std::to_string(WTERMSIG(capture.exitStatus));
    } else {
      cause = "exit" + std::to_string(WEXITSTATUS(capture.exitStatus));
    }
    // Best-effort source copies: a line too mangled to parse still gets a
    // bundle (request + meta), just not a standalone one.
    BundleEntries files = {{kBundleRequestFile, capture.requestLine + "\n"}};
    std::string blockFile;
    const RequestParse parse = parseRequestLine(capture.requestLine, 0, {});
    if (parse.ok()) {
      try {
        std::string machine = resolveMachineText(parse.request->machineSpec);
        auto [block, file] = resolveBlockText(parse.request->blockSpec);
        files.emplace_back(kBundleMachineFile, std::move(machine));
        files.emplace_back(file, std::move(block));
        blockFile = file;
      } catch (const std::exception&) {
        // sources unavailable; bundle stays partial
      }
    }

    const std::string dir = writeBundle(
        capture.killedByDeadline ? BundleKind::kKill : BundleKind::kCrash,
        capture.crashDir + "/crash-" + std::to_string(capture.sequence) +
            "-" + sanitize(cause),
        files,
        {{"exit", describeExitStatus(capture.exitStatus)},
         {"wantAsm", capture.wantAsm ? "1" : "0"}, {"blockFile", blockFile},
         {"failpoints", capture.failpointSite},
         {"rssLimitBytes", std::to_string(capture.rssLimitBytes)},
         {"cpuLimitSeconds", std::to_string(capture.cpuLimitSeconds)},
         {"deadlineMs", std::to_string(capture.deadlineMs)}});
    std::error_code ec;  // no flight record is not an error
    fs::rename(capture.flightRecordPath, dir + "/" + kBundleFlightFile, ec);
    return dir;
  } catch (const std::exception&) {
    return "";  // capture is best-effort; the response still flows
  }
}

CrashRepro loadCrashRepro(const ReproBundle& bundle) {
  CrashRepro repro;
  repro.kind = bundle.kind();
  repro.wantAsm = bundle.number<int>("wantAsm") != 0;
  repro.failpointSite = bundle.text("failpoints");
  repro.rssLimitBytes = bundle.number<uint64_t>("rssLimitBytes");
  repro.cpuLimitSeconds = bundle.number<uint64_t>("cpuLimitSeconds");
  repro.deadlineMs = bundle.number<int>("deadlineMs");
  const std::string& blockFile = bundle.text("blockFile");
  const std::string original =
      std::string(trim(bundle.read(kBundleRequestFile)));
  // A partial bundle (sources unresolvable at capture) replays the original
  // line as-is and hopes its specs still resolve here.
  repro.requestLine = blockFile.empty()
                          ? original
                          : rewriteLine(original, bundle.dir(), blockFile);
  return repro;
}

BundleReplay replayCrashRepro(const CrashRepro& repro) {
  const pid_t pid = ::fork();
  if (pid < 0) return {false, "fork failed"};
  if (pid == 0) runReplayChild(repro);

  // kill bundles reproduce by OUTLIVING the recorded deadline; crash
  // bundles by dying before a generous cap.
  const bool isKill = repro.kind == BundleKind::kKill;
  const int deadlineMs = repro.deadlineMs > 0 ? repro.deadlineMs : 2000;
  const int capMs = isKill ? deadlineMs + 250 : deadlineMs + 30000;
  int status = 0;
  for (int waitedMs = 0;; waitedMs += 10) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r < 0) return {false, "waitpid failed"};
    if (r == pid && isKill)
      return {false, "child finished before the recorded deadline (" +
                         describeExitStatus(status) + ")"};
    if (r == pid)
      return {WIFSIGNALED(status) ||
                  (WIFEXITED(status) && WEXITSTATUS(status) != 0),
              "child " + describeExitStatus(status)};
    if (waitedMs >= capMs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  (void)::waitpid(pid, &status, 0);
  if (isKill)
    return {true, "child still running at the recorded deadline; killed"};
  return {false, "replay child hung; killed"};
}

}  // namespace aviv::proc
