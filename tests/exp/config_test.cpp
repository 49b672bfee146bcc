#include "exp/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rlbf::exp {
namespace {

TEST(ArgParser, BindsTypedFlags) {
  std::string name = "default";
  std::size_t jobs = 10;
  double load = 1.0;
  std::uint64_t seed = 1;
  bool retrain = false;
  ArgParser parser("test");
  parser.add("--name", &name, "a string");
  parser.add("--jobs", &jobs, "a count");
  parser.add("--load", &load, "a factor");
  parser.add("--seed", &seed, "a seed");
  parser.add_flag("--retrain", &retrain, "a switch");

  std::string error;
  EXPECT_TRUE(parser.parse({"--name=x", "--jobs=42", "--load=1.5",
                            "--seed=7", "--retrain"},
                           &error))
      << error;
  EXPECT_EQ(name, "x");
  EXPECT_EQ(jobs, 42u);
  EXPECT_DOUBLE_EQ(load, 1.5);
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(retrain);
}

TEST(ArgParser, SwitchAcceptsExplicitValue) {
  bool quick = false;
  ArgParser parser("test");
  parser.add_flag("--quick", &quick, "switch");
  EXPECT_TRUE(parser.parse({"--quick=false"}));
  EXPECT_FALSE(quick);
  EXPECT_TRUE(parser.parse({"--quick=yes"}));
  EXPECT_TRUE(quick);
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser parser("test");
  std::string error;
  EXPECT_FALSE(parser.parse({"--nope=1"}, &error));
  EXPECT_NE(error.find("--nope"), std::string::npos);
}

TEST(ArgParser, MalformedValueFails) {
  std::size_t jobs = 0;
  ArgParser parser("test");
  parser.add("--jobs", &jobs, "count");
  std::string error;
  EXPECT_FALSE(parser.parse({"--jobs=12x"}, &error));
  EXPECT_NE(error.find("--jobs"), std::string::npos);
}

TEST(ArgParser, ValuelessNonSwitchFails) {
  std::size_t jobs = 0;
  ArgParser parser("test");
  parser.add("--jobs", &jobs, "count");
  std::string error;
  EXPECT_FALSE(parser.parse({"--jobs"}, &error));
}

TEST(ArgParser, PositionalsBindInOrder) {
  std::string trace = "SDSC-SP2", jobs = "3000";
  ArgParser parser("test");
  parser.add_positional("trace", &trace, "trace name");
  parser.add_positional("jobs", &jobs, "job count");
  EXPECT_TRUE(parser.parse({"HPC2N", "500"}));
  EXPECT_EQ(trace, "HPC2N");
  EXPECT_EQ(jobs, "500");

  std::string error;
  EXPECT_FALSE(parser.parse({"a", "b", "c"}, &error));
  EXPECT_NE(error.find("unexpected"), std::string::npos);
}

TEST(ArgParser, DashAndUnderscoreSpellingsAreInterchangeable) {
  std::size_t jobs = 0;
  ArgParser parser("test");
  parser.add("--sample_jobs", &jobs, "count");
  EXPECT_TRUE(parser.parse({"--sample-jobs=7"}));
  EXPECT_EQ(jobs, 7u);
  EXPECT_TRUE(parser.parse({"--sample_jobs=9"}));
  EXPECT_EQ(jobs, 9u);
}

TEST(ArgParser, RegisteringAFlagTwiceIsALogicError) {
  std::string a;
  std::string b;
  bool on = false;
  ArgParser parser("test");
  parser.add("--inject_fail", &a, "first");
  EXPECT_THROW(parser.add("--inject_fail", &b, "second"), std::logic_error);
  // The `_`/`-` folding that makes the spellings one flag at parse time
  // makes them one name here too, across every add* overload.
  EXPECT_THROW(parser.add("--inject-fail", &b, "second"), std::logic_error);
  EXPECT_THROW(parser.add_flag("inject_fail", &on, "second"), std::logic_error);
  try {
    parser.add("--inject_fail", &b, "second");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("--inject_fail"), std::string::npos)
        << e.what();
  }
  // The failed registrations left the parser as it was.
  EXPECT_TRUE(parser.parse({"--inject_fail=1:1"}));
  EXPECT_EQ(a, "1:1");
  EXPECT_EQ(b, "");
}

TEST(ArgParser, HelpIsAlwaysAccepted) {
  ArgParser parser("test");
  EXPECT_TRUE(parser.parse({"--help"}));
  EXPECT_TRUE(parser.help_requested());
}

TEST(ArgParser, UsageListsFlagsAndDefaults) {
  std::size_t jobs = 123;
  ArgParser parser("mytool", "does things");
  parser.add("--jobs", &jobs, "how many jobs");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("mytool"), std::string::npos);
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("how many jobs"), std::string::npos);
  EXPECT_NE(usage.find("123"), std::string::npos);
}

TEST(ParseNumber, RejectsJunkAndAcceptsWhole) {
  double d = 0.0;
  EXPECT_TRUE(parse_number("1.25", &d));
  EXPECT_DOUBLE_EQ(d, 1.25);
  EXPECT_FALSE(parse_number("", &d));
  EXPECT_FALSE(parse_number("1.2x", &d));

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", &u));
  EXPECT_EQ(u, ~std::uint64_t{0});
  EXPECT_FALSE(parse_number("-3", &u));

  std::int64_t i = 0;
  EXPECT_TRUE(parse_number("-42", &i));
  EXPECT_EQ(i, -42);
}

// Regression: strtod reports ERANGE for subnormal results exactly like
// it does for overflow, and the old blanket `errno != 0` check rejected
// perfectly valid tiny inputs. Finite-but-tiny parses; true overflow
// still fails.
TEST(ParseNumber, AcceptsSubnormalsRejectsOverflow) {
  double v = -1.0;
  EXPECT_TRUE(parse_number("1e-320", &v));  // subnormal: ERANGE + finite
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1e-300);
  EXPECT_TRUE(parse_number("5e-324", &v));  // smallest denormal
  EXPECT_GT(v, 0.0);
  EXPECT_TRUE(parse_number("-1e-320", &v));
  EXPECT_LT(v, 0.0);
  EXPECT_TRUE(parse_number("1e-5000", &v));  // underflows all the way to 0
  EXPECT_EQ(v, 0.0);

  EXPECT_FALSE(parse_number("1e400", &v));   // overflow: ERANGE + infinite
  EXPECT_FALSE(parse_number("-1e400", &v));
}

TEST(ParseNumber, RoundTripsExactFormatting) {
  // format_double_exact -> parse_number is lossless, subnormals included
  // (the fingerprint/cache-key contract).
  for (const double original : {3.14, 1e-320, 5e-324, -0.0, 1e308, 1.0 / 3.0}) {
    double parsed = 42.0;
    ASSERT_TRUE(parse_number(format_double_exact(original), &parsed))
        << format_double_exact(original);
    EXPECT_EQ(parsed, original) << format_double_exact(original);
  }
}

TEST(ParseBool, AcceptsCommonSpellings) {
  bool b = false;
  for (const char* t : {"1", "true", "YES", "on"}) {
    EXPECT_TRUE(parse_bool(t, &b)) << t;
    EXPECT_TRUE(b) << t;
  }
  for (const char* t : {"0", "False", "no", "OFF"}) {
    EXPECT_TRUE(parse_bool(t, &b)) << t;
    EXPECT_FALSE(b) << t;
  }
  EXPECT_FALSE(parse_bool("maybe", &b));
}

}  // namespace
}  // namespace rlbf::exp
