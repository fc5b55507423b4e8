#include "util/flags.h"

#include <gtest/gtest.h>

namespace hetps {
namespace {

FlagParser Parsed(std::vector<const char*> args) {
  FlagParser p;
  EXPECT_TRUE(p.Parse(static_cast<int>(args.size()), args.data()).ok());
  return p;
}

TEST(FlagParserTest, ParsesEqualsAndSpaceForms) {
  FlagParser p = Parsed({"--alpha=0.5", "--workers", "8", "--verbose"});
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha", 0.0).value(), 0.5);
  EXPECT_EQ(p.GetInt("workers", 0).value(), 8);
  EXPECT_TRUE(p.GetBool("verbose", false));
}

TEST(FlagParserTest, DefaultsWhenMissing) {
  FlagParser p = Parsed({});
  EXPECT_EQ(p.GetString("mode", "train"), "train");
  EXPECT_EQ(p.GetInt("n", 7).value(), 7);
  EXPECT_FALSE(p.GetBool("quiet", false));
  EXPECT_FALSE(p.Has("mode"));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser p = Parsed({"train", "--k=3", "data.libsvm"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "train");
  EXPECT_EQ(p.positional()[1], "data.libsvm");
}

TEST(FlagParserTest, RejectsDuplicatesAndEmptyNames) {
  FlagParser p;
  const char* dup[] = {"--x=1", "--x=2"};
  EXPECT_FALSE(p.Parse(2, dup).ok());
  FlagParser p2;
  const char* empty[] = {"--=1"};
  EXPECT_FALSE(p2.Parse(1, empty).ok());
}

TEST(FlagParserTest, TypeErrorsSurfaceAsStatus) {
  FlagParser p = Parsed({"--n=abc", "--x=1.2.3"});
  EXPECT_FALSE(p.GetInt("n", 0).ok());
  EXPECT_FALSE(p.GetDouble("x", 0.0).ok());
}

TEST(FlagParserTest, BoolValueForms) {
  FlagParser p = Parsed({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
}

TEST(FlagParserTest, UnusedFlagsDetectTypos) {
  FlagParser p = Parsed({"--learning-rate=0.1", "--lr=0.2"});
  (void)p.GetDouble("learning-rate", 0.0);
  const auto unused = p.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "lr");
}

TEST(FlagParserTest, EveryReadFlagCountsAsUsed) {
  // A flag counts as used once any getter reads it, whatever its type
  // and whether or not the value differs from the default; only flags
  // no getter asked for are reported.
  FlagParser p = Parsed(
      {"--workers=4", "--rate=0.5", "--trace", "--name=x", "--extra=1"});
  EXPECT_EQ(p.GetInt("workers", 1).value(), 4);
  EXPECT_DOUBLE_EQ(p.GetDouble("rate", 0.5).value(), 0.5);
  EXPECT_TRUE(p.GetBool("trace", false));
  EXPECT_EQ(p.GetString("name", ""), "x");
  EXPECT_EQ(p.GetInt("absent", 7).value(), 7);
  const auto unused = p.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "extra");
}

}  // namespace
}  // namespace hetps
