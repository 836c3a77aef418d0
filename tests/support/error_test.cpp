// The two invariant-failure paths of support/error.h: AVIV_CHECK aborts the
// process after printing where it failed, AVIV_REQUIRE throws an
// InternalError the driver can catch and degrade from.
#include "support/error.h"

#include <gtest/gtest.h>

#include <csignal>

namespace aviv {
namespace {

TEST(ErrorDeathTest, CheckFailedPrintsLocationAndMessageThenAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(detail::checkFailed("core/cover.cpp", 42, "x > 0", "x=-1"),
              ::testing::KilledBySignal(SIGABRT),
              "^AVIV internal check failed at core/cover\\.cpp:42: x > 0 "
              "\\(x=-1\\)\n$");
  EXPECT_EXIT(detail::checkFailed("a.cpp", 7, "ok", std::string{}),
              ::testing::KilledBySignal(SIGABRT),
              "^AVIV internal check failed at a\\.cpp:7: ok\n$");
}

TEST(ErrorDeathTest, CheckMacrosAbortWithTheFailedExpression) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int three = 3;
  EXPECT_EXIT(AVIV_CHECK(three == 4), ::testing::KilledBySignal(SIGABRT),
              "internal check failed at .*error_test\\.cpp:[0-9]+: "
              "three == 4\n");
  EXPECT_EXIT(AVIV_CHECK_MSG(three < 0, "three=" << three),
              ::testing::KilledBySignal(SIGABRT),
              "three < 0 \\(three=3\\)\n");
}

TEST(Error, RequireFailedThrowsInternalErrorWithLocation) {
  try {
    detail::requireFailed("core/cover.cpp", 7, "ready.any()",
                          "covering deadlock");
    FAIL() << "requireFailed returned";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(),
                 "AVIV internal invariant failed at core/cover.cpp:7: "
                 "ready.any() (covering deadlock)");
  }
  try {
    detail::requireFailed("a.cpp", 1, "ok", std::string{});
    FAIL() << "requireFailed returned";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(), "AVIV internal invariant failed at a.cpp:1: ok");
  }
}

TEST(Error, RequireMacrosThrowInternalError) {
  const int three = 3;
  EXPECT_THROW(AVIV_REQUIRE(three == 4), InternalError);
  try {
    AVIV_REQUIRE_MSG(three < 0, "three=" << three);
    FAIL() << "AVIV_REQUIRE_MSG passed a false condition";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("three < 0 (three=3)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(AVIV_REQUIRE(three == 3));
}

}  // namespace
}  // namespace aviv
