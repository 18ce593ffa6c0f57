#include "src/common/string_util.h"

#include <gtest/gtest.h>

namespace forklift {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitWhitespaceTest, BlankYieldsNothing) {
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ":"), "x:y:z");
  EXPECT_EQ(Split(Join(parts, ":"), ':'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(PrefixSuffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("forklift", "fork"));
  EXPECT_FALSE(StartsWith("fork", "forklift"));
  EXPECT_TRUE(EndsWith("fig1.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "fig1.csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  abc\t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(ParseUnsignedTest, AcceptsOnlyWholePlainNumbers) {
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("42"), 42u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "4x", " 4", "4 ", "-1", "+1", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUnsigned(bad).has_value()) << bad;
  }
}

TEST(ParseUnsignedTest, BaseAndMax) {
  EXPECT_EQ(ParseUnsigned("022", 8, 0777), 022u);
  EXPECT_EQ(ParseUnsigned("777", 8, 0777), 0777u);
  EXPECT_FALSE(ParseUnsigned("1000", 8, 0777).has_value());
  EXPECT_FALSE(ParseUnsigned("8", 8).has_value());
  EXPECT_FALSE(ParseUnsigned("11", 10, 10).has_value());
}

TEST(ParseSecondsTest, FiniteNonNegativeOnly) {
  EXPECT_EQ(ParseSeconds("0"), 0.0);
  EXPECT_EQ(ParseSeconds("0.25"), 0.25);
  EXPECT_EQ(ParseSeconds(".5"), 0.5);
  EXPECT_EQ(ParseSeconds("3"), 3.0);
  for (const char* bad : {"", "abc", "1s", " 1", "-1", "+1", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseSeconds(bad).has_value()) << bad;
  }
}

TEST(HumanBytesTest, UnitsAndRounding) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(1024), "1KiB");
  EXPECT_EQ(HumanBytes(1536), "1.5KiB");
  EXPECT_EQ(HumanBytes(4ull << 20), "4MiB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3GiB");
}

TEST(HumanNanosTest, UnitSelection) {
  EXPECT_EQ(HumanNanos(500), "500ns");
  EXPECT_EQ(HumanNanos(1500), "1.50us");
  EXPECT_EQ(HumanNanos(2.5e6), "2.50ms");
  EXPECT_EQ(HumanNanos(3.2e9), "3.20s");
}

}  // namespace
}  // namespace forklift
