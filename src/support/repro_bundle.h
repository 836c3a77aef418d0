// Repro bundles: the one on-disk format every failure path leaves behind,
// written and parsed only here. A bundle is a directory of fixed file names
// plus meta.txt, one key=value per line, `kind=` first and
// `replay=fuzz_gen --replay <dir>` last. docs/fuzzing.md "Reproducing a
// failure" tables the files, required keys and replay of each kind:
// miscompile (src/verify/quarantine), fuzz (src/fuzz/repro), crash and
// kill (src/proc/crash_repro). `fuzz_gen --replay DIR` replays them all.
#pragma once

#include <charconv>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/io.h"

namespace aviv {

enum class BundleKind { kMiscompile, kFuzz, kCrash, kKill };

[[nodiscard]] const char* bundleKindName(BundleKind kind);

inline constexpr char kBundleMachineFile[] = "machine.isdl";
inline constexpr char kBundleBlockFile[] = "block.blk";
inline constexpr char kBundleMiniCFile[] = "block.c";
inline constexpr char kBundleEntryFile[] = "entry.bin";
inline constexpr char kBundleAsmFile[] = "asm.txt";
inline constexpr char kBundleRequestFile[] = "request.txt";
inline constexpr char kBundleFlightFile[] = "flight.json";

// (name, contents) files or (key, value) meta lines, in write order.
using BundleEntries = std::vector<std::pair<std::string, std::string>>;

// Creates `dir`, writes `files` into it, then meta.txt from `meta` with
// every value folded onto one line. Returns `dir`; throws on I/O failure.
std::string writeBundle(BundleKind kind, const std::string& dir,
                        const BundleEntries& files, const BundleEntries& meta);

// What replaying a bundle of any kind did: whether the recorded failure
// came back, and a one-line account of the replay.
struct BundleReplay {
  bool reproduced = false;
  std::string detail;
};

// A bundle's meta.txt, parsed once and checked against the keys its kind
// requires. Every error is an aviv::Error naming meta.txt and the key.
class ReproBundle {
 public:
  // Throws when `dir` or its meta.txt is missing, kind= is missing or
  // unknown, or a key the kind requires is absent.
  [[nodiscard]] static ReproBundle load(const std::string& dir);

  [[nodiscard]] BundleKind kind() const { return kind_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string read(const std::string& file) const {
    return readFile(dir_ + "/" + file);
  }

  // Typed getters: throw on a missing key, or on a value that is not
  // entirely a T.
  [[nodiscard]] const std::string& text(const std::string& key) const;
  template <typename T>
  [[nodiscard]] T number(const std::string& key) const {
    const std::string& value = text(key);
    const char* end = value.data() + value.size();
    T out{};
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec != std::errc() || ptr != end) badValue(key);
    return out;
  }

 private:
  ReproBundle() = default;  // only load() makes one
  [[noreturn]] void badValue(const std::string& key) const;

  BundleKind kind_ = BundleKind::kMiscompile;
  std::string dir_;
  std::map<std::string, std::string> meta_;
};

}  // namespace aviv
