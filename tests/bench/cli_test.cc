// The bench front end: --jobs / FLEX_BENCH_JOBS, the path flags, the
// positional counts and every usage error.
// Parse-only: nothing here starts a worker thread, whatever count a case
// asks for.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"

namespace flex::bench {
namespace {

/// Parses `args` (argv[0] first) as a bench taking one "requests"
/// positional (default 6000) and `flags`.
Cli parse(std::vector<std::string> args,
          std::initializer_list<std::string_view> flags = {},
          std::initializer_list<Positional> positionals = {
              {"requests", 6000}}) {
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data(), positionals, flags);
}

/// Runs each test with FLEX_BENCH_JOBS unset (no other test in this
/// binary sets it).
class ParseJobsTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("FLEX_BENCH_JOBS"); }
  void TearDown() override { unsetenv("FLEX_BENCH_JOBS"); }
};

TEST(ParseJobsValueTest, AcceptsNonNegativeDecimalCounts) {
  EXPECT_EQ(parse_jobs_value("0"), 0);
  EXPECT_EQ(parse_jobs_value("1"), 1);
  EXPECT_EQ(parse_jobs_value("16"), 16);
  EXPECT_EQ(parse_jobs_value("007"), 7);
  EXPECT_EQ(parse_jobs_value("2147483647"), 2147483647);
}

TEST(ParseJobsValueTest, RejectsMalformedCounts) {
  for (const char* text : {"", "garbage", "4x", "x4", "-1", "+2", " 3", "3 ",
                           "1.5", "0x10", "2147483648",
                           "99999999999999999999999"}) {
    EXPECT_FALSE(parse_jobs_value(text).has_value()) << '"' << text << '"';
  }
}

TEST_F(ParseJobsTest, ExtractsEverySpellingAndKeepsPositionals) {
  const Cli plain = parse({"bench", "--jobs", "3", "500"});
  EXPECT_EQ(plain.jobs(), 3);
  EXPECT_EQ(plain.count(0), 500u);

  const Cli short_flag = parse({"bench", "700", "-j", "0"});
  EXPECT_EQ(short_flag.jobs(), 0);
  EXPECT_EQ(short_flag.count(0), 700u);

  const Cli equals =
      parse({"bench", "--jobs=8", "--metrics-out", "m.jsonl"}, {kMetricsOut});
  EXPECT_EQ(equals.jobs(), 8);
  EXPECT_EQ(equals.path(kMetricsOut), "m.jsonl");

  const Cli none = parse({"bench", "20000"});
  EXPECT_EQ(none.jobs(), 1);
  EXPECT_EQ(none.count(0), 20000u);
}

TEST_F(ParseJobsTest, FlagOverridesEnvironment) {
  setenv("FLEX_BENCH_JOBS", "4", 1);
  EXPECT_EQ(parse({"bench"}).jobs(), 4);
  EXPECT_EQ(parse({"bench", "--jobs", "2"}).jobs(), 2);
}

TEST_F(ParseJobsTest, MalformedValuesAreUsageErrors) {
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"bench", "--jobs", "garbage"}), usage,
              "--jobs expects a job count.*\"garbage\"");
  EXPECT_EXIT(parse({"bench", "-j", "-3"}), usage, "-j expects");
  EXPECT_EXIT(parse({"bench", "--jobs=4x"}), usage, "\"4x\"");
  EXPECT_EXIT(parse({"bench", "500", "--jobs"}), usage, "got \"\"");
  EXPECT_EXIT(
      {
        setenv("FLEX_BENCH_JOBS", "many", 1);
        parse({"bench"});
      },
      usage, "FLEX_BENCH_JOBS expects a job count.*\"many\"");
}

TEST(ParseCountValueTest, AcceptsDecimalDigitsUpToTheCap) {
  EXPECT_EQ(parse_count_value("0"), 0u);
  EXPECT_EQ(parse_count_value("20000"), 20000u);
  EXPECT_EQ(parse_count_value("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_count_value("5", 5), 5u);
  EXPECT_FALSE(parse_count_value("6", 5).has_value());
}

TEST(ParseCountValueTest, RejectsWhatParseJobsValueRejects) {
  for (const char* text : {"", "--help", "garbage", "20k", "-5", "+2", " 3",
                           "3 ", "1.5", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_count_value(text).has_value()) << '"' << text << '"';
    EXPECT_FALSE(parse_jobs_value(text).has_value()) << '"' << text << '"';
  }
}

TEST(PositionalCountTest, AbsentArgumentKeepsTheDefault) {
  const std::initializer_list<Positional> two = {{"requests", 6000},
                                                 {"crash points", 32}};
  const Cli none = parse({"bench"}, {}, two);
  EXPECT_EQ(none.count(0), 6000u);
  EXPECT_EQ(none.count(1), 32u);
  const Cli one = parse({"bench", "500"}, {}, two);
  EXPECT_EQ(one.count(0), 500u);
  EXPECT_EQ(one.count(1), 32u);
  EXPECT_EQ(parse({"bench", "0"}).count(0), 0u);
}

TEST(PositionalCountDeathTest, MalformedValueIsAUsageError) {
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"bench", "20k"}), usage,
              "positional argument 1 \\(requests\\).*\"20k\"");
  EXPECT_EXIT(parse({"bench", "1", "6"}, {}, {{"a", 0}, {"rounds", 0, 5}}),
              usage, "positional argument 2 \\(rounds\\).*\"6\"");
}

TEST(PathFlagsTest, ExtractsBothSpellingsAndKeepsPositionals) {
  const Cli cli = parse({"bench", "200", "--metrics-out", "m.jsonl", "--jobs",
                         "2", "--trace-out=t.json"},
                        {kTraceOut, kMetricsOut, kBenchOut});
  EXPECT_EQ(cli.path(kMetricsOut), "m.jsonl");
  EXPECT_EQ(cli.path(kTraceOut), "t.json");
  EXPECT_EQ(cli.path(kBenchOut), "");
  EXPECT_EQ(cli.bench_out("fig6a"), "BENCH_fig6a.json");
  EXPECT_EQ(cli.count(0), 200u);
  EXPECT_EQ(cli.jobs(), 2);

  const Cli crash = parse({"bench", "300", "--report-out", "r.jsonl", "2"},
                          {"--report-out"},
                          {{"requests", 6000}, {"crash points", 32}});
  EXPECT_EQ(crash.path("--report-out"), "r.jsonl");
  EXPECT_EQ(crash.count(0), 300u);
  EXPECT_EQ(crash.count(1), 2u);

  EXPECT_EQ(parse({"bench", "--bench-out=out.json"}, {kBenchOut})
                .bench_out("fig6a"),
            "out.json");
}

TEST(PathFlagsDeathTest, FlagWithoutValueIsAUsageError) {
  // A trailing output flag used to be dropped: exit 0 and no file.
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"bench", "200", "--metrics-out"}, {kMetricsOut}), usage,
              "--metrics-out expects a path, got \"\"");
  EXPECT_EXIT(parse({"bench", "--bench-out="}, {kBenchOut}), usage,
              "--bench-out expects a path");
  EXPECT_EXIT(parse({"bench", "300", "--report-out"}, {"--report-out"}),
              usage, "--report-out expects a path");
}

TEST(PathFlagsDeathTest, UnwritableOutputFailsAtParseTime) {
  // A bad output path used to cost a whole sweep: every cell ran, then
  // the write failed.
  const auto cannot = ::testing::ExitedWithCode(1);
  EXPECT_EXIT(parse({"bench", "500", "--metrics-out",
                     "/nonexistent_dir/m.jsonl"},
                    {kMetricsOut}),
              cannot, "cannot write /nonexistent_dir/m.jsonl");
  EXPECT_EXIT(parse({"bench", "--trace-out=/nonexistent_dir/t.json"},
                    {kTraceOut, kMetricsOut}),
              cannot, "cannot write /nonexistent_dir/t.json");
  EXPECT_EXIT(parse({"bench", "--bench-out", "/nonexistent_dir/b.json"},
                    {kBenchOut}),
              cannot, "cannot write /nonexistent_dir/b.json");
  // A path naming a directory cannot be written as a file either.
  EXPECT_EXIT(parse({"bench", "--report-out", "."}, {"--report-out"}), cannot,
              "cannot write \\.");
}

TEST(CliDeathTest, UnknownFlagsAndSurplusPositionalsAreUsageErrors) {
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"bench", "500", "--bogus"}), usage,
              "unknown flag \"--bogus\"");
  // `--help` used to parse as 0 and run the full default experiment.
  EXPECT_EXIT(parse({"bench", "--help"}), usage, "unknown flag \"--help\"");
  // A path flag the bench does not write is unknown to it.
  EXPECT_EXIT(parse({"bench", "--trace-out", "t.json"}, {kMetricsOut}), usage,
              "unknown flag \"--trace-out\"");
  EXPECT_EXIT(parse({"bench", "500", "77"}), usage,
              "unexpected argument \"77\" \\(takes 1 positional argument\\)");
  EXPECT_EXIT(parse({"bench", "1"}, {}, {}), usage,
              "unexpected argument \"1\" \\(takes 0 positional arguments\\)");
}

}  // namespace
}  // namespace flex::bench
