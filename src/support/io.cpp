#include "support/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "support/error.h"

#ifndef AVIV_MACHINE_DIR
#define AVIV_MACHINE_DIR "machines"
#endif
#ifndef AVIV_BLOCK_DIR
#define AVIV_BLOCK_DIR "blocks"
#endif

namespace aviv {

std::string readFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw Error("cannot open file: " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw Error("cannot read file: " + path);
  // A regular file is read into one buffer of its size plus the byte that
  // observes end of file; anything else grows as it reads. A directory
  // opens fine but fails its first read (EISDIR).
  std::string data(
      S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) + 1 : 4096, '\0');
  size_t used = 0;
  for (;;) {
    if (used == data.size()) data.resize(data.size() * 2);
    const ssize_t n = ::read(fd, data.data() + used, data.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw Error("cannot read file: " + path);
    if (n == 0) break;
    used += static_cast<size_t>(n);
  }
  data.resize(used);
  return data;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write file: " + path);
  out << content;
}

namespace {
std::string dirFromEnv(const char* var, const char* fallback) {
  if (const char* env = std::getenv(var); env != nullptr && *env != '\0')
    return env;
  return fallback;
}
}  // namespace

std::string machineDir() {
  return dirFromEnv("AVIV_MACHINE_DIR", AVIV_MACHINE_DIR);
}

std::string blockDir() { return dirFromEnv("AVIV_BLOCK_DIR", AVIV_BLOCK_DIR); }

std::string machinePath(const std::string& name) {
  return machineDir() + "/" + name + ".isdl";
}

std::string blockPath(const std::string& name) {
  return blockDir() + "/" + name + ".blk";
}

}  // namespace aviv
