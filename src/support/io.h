// File loading + location of the shipped data directories (machines/,
// blocks/). Paths are baked in by CMake so binaries work from any CWD, with
// environment-variable overrides for relocated installs.
#pragma once

#include <string>

namespace aviv {

// Whole-file read. Throws aviv::Error "cannot open file: <path>" when the
// path does not open, "cannot read file: <path>" when it opens but does not
// read (a directory, an I/O error).
[[nodiscard]] std::string readFile(const std::string& path);

void writeFile(const std::string& path, const std::string& content);

// Directory containing the shipped .isdl machine descriptions.
// $AVIV_MACHINE_DIR overrides the compiled-in default.
[[nodiscard]] std::string machineDir();

// Directory containing the shipped .blk benchmark blocks.
// $AVIV_BLOCK_DIR overrides the compiled-in default.
[[nodiscard]] std::string blockDir();

// machineDir()/name + ".isdl"
[[nodiscard]] std::string machinePath(const std::string& name);
// blockDir()/name + ".blk"
[[nodiscard]] std::string blockPath(const std::string& name);

}  // namespace aviv
