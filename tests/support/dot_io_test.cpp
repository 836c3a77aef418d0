#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "support/dot.h"
#include "support/error.h"
#include "support/io.h"

namespace aviv {
namespace {

TEST(DotWriter, EmitsValidDigraph) {
  DotWriter dw("g");
  dw.addRaw("rankdir=BT;");
  dw.addNode("a", "shape=box, label=\"A\"");
  dw.addNode("b", "shape=ellipse, label=\"B\"");
  dw.addEdge("a", "b");
  dw.addEdge("b", "a", "style=dashed");
  const std::string out = dw.str();
  EXPECT_NE(out.find("digraph \"g\" {"), std::string::npos);
  EXPECT_NE(out.find("\"a\" -> \"b\";"), std::string::npos);
  EXPECT_NE(out.find("\"b\" -> \"a\" [style=dashed];"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST(DotWriter, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(DotWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  DotWriter dw("quo\"te");
  EXPECT_NE(dw.str().find("digraph \"quo\\\"te\""), std::string::npos);
}

TEST(Io, ReadWriteRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "aviv_io_test.txt").string();
  writeFile(path, "hello\nworld");
  EXPECT_EQ(readFile(path), "hello\nworld");
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW((void)readFile("/nonexistent/definitely/missing"), Error);
}

// A directory opens but does not read: readFile must say so instead of
// returning an empty file.
TEST(Io, DirectoryThrowsCannotRead) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  try {
    (void)readFile(dir);
    FAIL() << "readFile of a directory returned";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot read file: " + dir);
  }
}

TEST(Io, ReadsEmptyAndMultiBufferFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "aviv_io_sizes_test.bin")
          .string();
  writeFile(path, "");
  EXPECT_EQ(readFile(path), "");
  std::string big;
  for (int i = 0; i < 20000; ++i) big += static_cast<char>(i * 7 % 251);
  writeFile(path, big);
  EXPECT_EQ(readFile(path), big);
  std::remove(path.c_str());
}

TEST(Io, DataDirsResolveShippedFiles) {
  // The compiled-in defaults (or env overrides in CI) must point at real
  // directories containing the shipped data.
  EXPECT_NO_THROW((void)readFile(machinePath("arch1")));
  EXPECT_NO_THROW((void)readFile(blockPath("ex1")));
}

TEST(ErrorType, CarriesLocation) {
  const Error plain("message");
  EXPECT_FALSE(plain.loc().valid());
  const Error located(SourceLoc{3, 7}, "bad token");
  EXPECT_TRUE(located.loc().valid());
  EXPECT_EQ(located.loc().line, 3u);
  EXPECT_EQ(std::string(located.what()), "3:7: bad token");
  EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
  EXPECT_EQ((SourceLoc{12, 1}).str(), "12:1");
}

}  // namespace
}  // namespace aviv
