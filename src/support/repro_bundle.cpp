#include "support/repro_bundle.h"

#include <algorithm>
#include <filesystem>

#include "support/error.h"
#include "support/io.h"
#include "support/strings.h"

namespace aviv {

namespace {

constexpr char kBundleMetaFile[] = "meta.txt";

struct KindSchema {
  const char* name;
  std::vector<std::string> required;  // meta keys replay cannot do without
};

// Indexed by BundleKind.
const std::vector<KindSchema>& schemas() {
  static const std::vector<std::string> kCrashKeys = {
      "exit",          "wantAsm",         "blockFile", "failpoints",
      "rssLimitBytes", "cpuLimitSeconds", "deadlineMs"};
  static const std::vector<KindSchema> kSchemas = {
      {"miscompile", {"seed", "vectors", "verifierVersion"}},
      {"fuzz",
       {"family", "machineSeed", "blockSeed", "iteration", "vectors",
        "vectorSeed", "timeLimitSeconds", "failpoints", "signature"}},
      {"crash", kCrashKeys},
      {"kill", kCrashKeys},
  };
  return kSchemas;
}

}  // namespace

const char* bundleKindName(BundleKind kind) {
  return schemas()[static_cast<size_t>(kind)].name;
}

std::string writeBundle(BundleKind kind, const std::string& dir,
                        const BundleEntries& files,
                        const BundleEntries& meta) {
  std::filesystem::create_directories(dir);
  for (const auto& [name, contents] : files)
    writeFile(dir + "/" + name, contents);
  std::string text = std::string("kind=") + bundleKindName(kind) + "\n";
  for (auto [key, value] : meta) {
    std::replace(value.begin(), value.end(), '\n', ' ');
    std::replace(value.begin(), value.end(), '\r', ' ');
    text += key + "=" + value + "\n";
  }
  writeFile(dir + "/" + kBundleMetaFile,
            text + "replay=fuzz_gen --replay " + dir + "\n");
  return dir;
}

ReproBundle ReproBundle::load(const std::string& dir) {
  if (!std::filesystem::is_directory(dir))
    throw Error("repro bundle " + dir + ": no such directory");
  ReproBundle bundle;
  bundle.dir_ = dir;
  const std::string metaPath = dir + "/" + kBundleMetaFile;
  for (const std::string& line : split(readFile(metaPath), '\n')) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos)
      bundle.meta_[line.substr(0, eq)] = line.substr(eq + 1);
  }
  const auto kind = bundle.meta_.find("kind");
  if (kind == bundle.meta_.end())
    throw Error(metaPath + ": missing kind= (miscompile|fuzz|crash|kill)");
  const auto& all = schemas();
  const auto schema = std::find_if(all.begin(), all.end(), [&](const auto& s) {
    return kind->second == s.name;
  });
  if (schema == all.end())
    throw Error(metaPath + ": unknown kind '" + kind->second + "'");
  bundle.kind_ = static_cast<BundleKind>(schema - all.begin());
  for (const std::string& key : schema->required) (void)bundle.text(key);
  return bundle;
}

const std::string& ReproBundle::text(const std::string& key) const {
  const auto it = meta_.find(key);
  if (it == meta_.end())
    throw Error(dir_ + "/" + kBundleMetaFile + ": missing required key '" +
                key + "'");
  return it->second;
}

void ReproBundle::badValue(const std::string& key) const {
  throw Error(dir_ + "/" + kBundleMetaFile + ": bad value for '" + key +
              "': '" + meta_.at(key) + "'");
}

}  // namespace aviv
