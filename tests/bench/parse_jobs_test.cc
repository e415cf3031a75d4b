// The --jobs / FLEX_BENCH_JOBS parser, the output-path flags and the
// positional count arguments.
// Parse-only: nothing here starts a worker thread, whatever count a case
// asks for.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"

namespace flex::bench {
namespace {

/// Owns a mutable argv for parse_jobs(), which compacts it in place.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) argv_.push_back(arg.data());
    argc_ = static_cast<int>(argv_.size());
  }
  int parse() { return parse_jobs(&argc_, argv_.data()); }
  OutputOptions outputs() { return parse_outputs(&argc_, argv_.data()); }
  std::string report_out() {
    std::string path;
    parse_path_flags(&argc_, argv_.data(), {{"--report-out", &path}});
    return path;
  }
  std::uint64_t positional(int index, std::uint64_t fallback) {
    return positional_count(argc_, argv_.data(), index, "requests",
                            fallback);
  }
  std::vector<std::string> remaining() const {
    return {argv_.begin(), argv_.begin() + argc_};
  }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
  int argc_ = 0;
};

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
  Args plain({"bench", "--jobs", "3", "500"});
  EXPECT_EQ(plain.parse(), 3);
  EXPECT_EQ(plain.remaining(), (std::vector<std::string>{"bench", "500"}));

  Args short_flag({"bench", "700", "-j", "0"});
  EXPECT_EQ(short_flag.parse(), 0);
  EXPECT_EQ(short_flag.remaining(),
            (std::vector<std::string>{"bench", "700"}));

  Args equals({"bench", "--jobs=8", "--metrics-out", "m.jsonl"});
  EXPECT_EQ(equals.parse(), 8);
  EXPECT_EQ(equals.remaining(), (std::vector<std::string>{
                                    "bench", "--metrics-out", "m.jsonl"}));

  Args none({"bench", "20000"});
  EXPECT_EQ(none.parse(), 1);
  EXPECT_EQ(none.remaining(), (std::vector<std::string>{"bench", "20000"}));
}

TEST_F(ParseJobsTest, FlagOverridesEnvironment) {
  setenv("FLEX_BENCH_JOBS", "4", 1);
  Args env_only({"bench"});
  EXPECT_EQ(env_only.parse(), 4);
  Args flag({"bench", "--jobs", "2"});
  EXPECT_EQ(flag.parse(), 2);
}

TEST_F(ParseJobsTest, MalformedValuesAreUsageErrors) {
  const auto parse = [](std::vector<std::string> args) {
    Args(std::move(args)).parse();
  };
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
  Args none({"bench"});
  EXPECT_EQ(none.positional(1, 6000), 6000u);
  Args one({"bench", "500"});
  EXPECT_EQ(one.positional(1, 6000), 500u);
  EXPECT_EQ(one.positional(2, 32), 32u);
  Args zero({"bench", "0"});
  EXPECT_EQ(zero.positional(1, 6000), 0u);
}

TEST(PositionalCountDeathTest, MalformedValueIsAUsageError) {
  // `--help` used to parse as 0 and run the full default experiment.
  EXPECT_EXIT(Args({"bench", "--help"}).positional(1, 0),
              ::testing::ExitedWithCode(2),
              "positional argument 1 \\(requests\\).*\"--help\"");
}

TEST(PathFlagsTest, ExtractsBothSpellingsAndKeepsPositionals) {
  Args args({"bench", "200", "--metrics-out", "m.jsonl", "--jobs", "2",
             "--trace-out=t.json"});
  const OutputOptions options = args.outputs();
  EXPECT_EQ(options.metrics_out, "m.jsonl");
  EXPECT_EQ(options.trace_out, "t.json");
  EXPECT_EQ(options.bench_out, "");
  EXPECT_EQ(args.remaining(),
            (std::vector<std::string>{"bench", "200", "--jobs", "2"}));

  Args crash({"bench", "300", "--report-out", "r.jsonl", "2"});
  EXPECT_EQ(crash.report_out(), "r.jsonl");
  EXPECT_EQ(crash.remaining(),
            (std::vector<std::string>{"bench", "300", "2"}));
}

TEST(PathFlagsDeathTest, FlagWithoutValueIsAUsageError) {
  // A trailing output flag used to be dropped: exit 0 and no file.
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(Args({"bench", "200", "--metrics-out"}).outputs(), usage,
              "--metrics-out expects a path, got \"\"");
  EXPECT_EXIT(Args({"bench", "--bench-out="}).outputs(), usage,
              "--bench-out expects a path");
  EXPECT_EXIT(Args({"bench", "300", "2", "--report-out"}).report_out(), usage,
              "--report-out expects a path");
}

}  // namespace
}  // namespace flex::bench
