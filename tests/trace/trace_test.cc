#include "trace/trace.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace flex::trace {
namespace {

TEST(TraceTest, CsvRoundTrip) {
  const std::vector<Request> original = {
      {.arrival = 0, .is_write = false, .lpn = 100, .pages = 4},
      {.arrival = 1500 * kMicrosecond, .is_write = true, .lpn = 7, .pages = 1},
      {.arrival = 2 * kSecond, .is_write = false, .lpn = 0, .pages = 64},
  };
  std::stringstream buffer;
  write_csv(buffer, original);
  const std::vector<Request> parsed = read_csv(buffer);
  EXPECT_EQ(parsed, original);
}

TEST(TraceTest, SkipsCommentsAndBlankLines) {
  std::stringstream in("# header\n\n10,R,5,1\n");
  const auto parsed = read_csv(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].lpn, 5u);
  EXPECT_EQ(parsed[0].arrival, 10 * kMicrosecond);
}

TEST(TraceTest, LowercaseOpsAccepted) {
  std::stringstream in("1,w,2,3\n");
  const auto parsed = read_csv(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].is_write);
}

TEST(TraceTest, MalformedLinesThrow) {
  for (const char* bad : {"1,R,5\n", "x,R,5,1\n", "1,Q,5,1\n", "1,R,5,0\n",
                          "1,R,five,1\n", "1,R,5,1,extra\n",
                          // lpn and pages are 32 bits: a value they cannot
                          // hold throws instead of wrapping to another extent.
                          "1,R,4294967296,1\n",   // lpn 2^32
                          "1,R,5,4294967297\n",   // pages 2^32 + 1 (was 1)
                          "1,W,4294967295,2\n"}) {  // run past 2^32 - 1
    std::stringstream in(bad);
    EXPECT_THROW((void)read_csv(in), std::runtime_error) << bad;
  }
}

TEST(TraceTest, OutOfOrderTimestampThrowsAndEqualOnesPass) {
  // A trace is replayed in arrival order: read_csv refuses a timestamp
  // earlier than the previous request's instead of sorting silently.
  std::stringstream unsorted("10,R,1,1\n20,W,2,1\n15,R,3,1\n");
  try {
    (void)read_csv(unsorted);
    ADD_FAILURE() << "an out-of-order timestamp was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("15,R,3,1"), std::string::npos)
        << error.what();
  }
  std::stringstream ties("10,R,1,1\n10,W,2,1\n");
  const auto parsed = read_csv(ties);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].arrival, 10 * kMicrosecond);
  EXPECT_TRUE(sorted_by_arrival(parsed));
}

TEST(TraceTest, RunEndingAtLpnSpaceIsAccepted) {
  std::stringstream in("1,W,4294967294,2\n");  // last page 2^32 - 1
  const auto parsed = read_csv(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].lpn, 4294967294u);
  EXPECT_EQ(parsed[0].pages, 2u);
  EXPECT_EQ(summarize(parsed).max_lpn, 4294967295u);
}

TEST(TraceTest, SummarizeCounts) {
  const std::vector<Request> trace = {
      {.arrival = 0, .is_write = false, .lpn = 10, .pages = 4},
      {.arrival = 1, .is_write = true, .lpn = 100, .pages = 2},
      {.arrival = 2, .is_write = false, .lpn = 5, .pages = 1},
  };
  const TraceSummary s = summarize(trace);
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.read_pages, 5u);
  EXPECT_EQ(s.write_pages, 2u);
  EXPECT_EQ(s.max_lpn, 101u);
  EXPECT_NEAR(s.read_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(TraceTest, SummarizeEmpty) {
  const TraceSummary s = summarize({});
  EXPECT_EQ(s.requests, 0u);
  EXPECT_DOUBLE_EQ(s.read_fraction(), 0.0);
}

}  // namespace
}  // namespace flex::trace
