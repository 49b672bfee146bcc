#include "swf/parser.h"

#include <gtest/gtest.h>

#include <sstream>

#include "swf/writer.h"
#include "util/rng.h"

namespace rlbf::swf {
namespace {

constexpr const char* kFixture = R"(; Computer: Test SP2
; MaxProcs: 128
; UnixStartTime: 870000000
;
1 0 5 100 4 -1 -1 4 200 -1 1 1 1 -1 -1 -1 -1 -1
2 10 0 50 2 12.5 -1 2 60 -1 1 2 1 -1 -1 -1 -1 -1
3 20 3 300 8 -1 -1 8 400 -1 1 1 2 -1 -1 -1 -1 -1
)";

TEST(Parser, ReadsJobsAndHeader) {
  std::istringstream in(kFixture);
  const ParseResult r = parse_swf(in, "fixture");
  EXPECT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace.machine_procs(), 128);
  EXPECT_EQ(r.header.at("MaxProcs"), "128");
  EXPECT_EQ(r.header.at("Computer"), "Test SP2");
  EXPECT_EQ(r.skipped_jobs, 0u);
}

TEST(Parser, ParsesAllEighteenFields) {
  std::istringstream in(kFixture);
  const ParseResult r = parse_swf(in, "fixture");
  const Job& j = r.trace[1];
  EXPECT_EQ(j.submit_time, 10);
  EXPECT_EQ(j.run_time, 50);
  EXPECT_EQ(j.used_procs, 2);
  EXPECT_DOUBLE_EQ(j.avg_cpu_time, 12.5);
  EXPECT_EQ(j.requested_procs, 2);
  EXPECT_EQ(j.requested_time, 60);
  EXPECT_EQ(j.status, 1);
  EXPECT_EQ(j.user_id, 2);
}

TEST(Parser, SkipsInvalidJobsByDefault) {
  std::istringstream in(
      "; MaxProcs: 64\n"
      "1 0 -1 -1 -1 -1 -1 -1 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n"  // cancelled
      "2 5 0 10 1 -1 -1 1 20 -1 1 1 1 -1 -1 -1 -1 -1\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.skipped_jobs, 1u);
}

TEST(Parser, StrictModeRejectsInvalidJobs) {
  std::istringstream in(
      "1 0 -1 -1 -1 -1 -1 -1 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n");
  ParseOptions opts;
  opts.skip_invalid_jobs = false;
  EXPECT_THROW(parse_swf(in, "x", opts), std::runtime_error);
}

TEST(Parser, MalformedLineThrows) {
  std::istringstream in("1 2 3 not-a-number\n");
  EXPECT_THROW(parse_swf(in, "x"), std::runtime_error);
}

TEST(Parser, ExtraFieldsRejected) {
  const std::string job = "1 0 0 10 1 -1 -1 1 20 -1 1 1 1 -1 -1 -1 -1 -1";
  // Two jobs merged onto one line by a lost newline: 36 fields.
  for (const std::string& line :
       {job + " " + job, job + " junk", job + "abc", job + " \t;x"}) {
    std::istringstream in("; MaxProcs: 64\n" + line + "\n");
    try {
      parse_swf(in, "merged");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "swf parse error at line 2 of merged: expected 18 fields");
    }
  }
  // Trailing whitespace after the 18th field is still fine.
  std::istringstream in(job + " \t \r\n");
  EXPECT_EQ(parse_swf(in, "x").trace.size(), 1u);
}

TEST(Parser, MachineSizeFallsBackToWidestJob) {
  std::istringstream in("1 0 0 10 16 -1 -1 16 20 -1 1 1 1 -1 -1 -1 -1 -1\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.trace.machine_procs(), 16);
}

TEST(Parser, ClampsOverWideRequests) {
  std::istringstream in(
      "; MaxProcs: 8\n"
      "1 0 0 10 4 -1 -1 99 20 -1 1 1 1 -1 -1 -1 -1 -1\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.trace[0].requested_procs, 8);
  EXPECT_NO_THROW(r.trace.validate());
}

TEST(Parser, NormalizesOutOfOrderSubmits) {
  std::istringstream in(
      "; MaxProcs: 8\n"
      "1 100 0 10 1 -1 -1 1 20 -1 1 1 1 -1 -1 -1 -1 -1\n"
      "2 50 0 10 1 -1 -1 1 20 -1 1 1 1 -1 -1 -1 -1 -1\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.trace[0].submit_time, 50);
  EXPECT_EQ(r.trace[0].id, 1);  // renumbered
}

TEST(Parser, HandlesBlankLinesAndDosEndings) {
  std::istringstream in(
      "; MaxProcs: 8\r\n"
      "\r\n"
      "   \n"
      "1 0 0 10 1 -1 -1 1 20 -1 1 1 1 -1 -1 -1 -1 -1\r\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace.machine_procs(), 8);
}

TEST(Parser, MachineSizeHeaderMustBeAWholePositiveInteger) {
  // A numeric prefix used to size the machine ("12x8" -> 12) and
  // clamp_width then silently cut the 16-wide job down to 12.
  const std::string job = "1 0 0 10 16 -1 -1 16 20 -1 1 1 1 -1 -1 -1 -1 -1\n";
  for (const char* key : {"MaxProcs", "MaxNodes"}) {
    for (const std::string value : {"12x8", "abc", "0", "-4", "", "12 8", "1e3"}) {
      std::istringstream in("; " + std::string(key) + ": " + value + "\n" + job);
      try {
        parse_swf(in, "trace");
        ADD_FAILURE() << key << " '" << value << "' was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "swf parse error: bad " + std::string(key) +
                                             " header value '" + value + "' in trace");
      }
    }
  }
  std::istringstream in("; MaxNodes: 32\n" + job);
  EXPECT_EQ(parse_swf(in, "trace").trace.machine_procs(), 32);
}

TEST(Parser, HeaderEqualsSignStyle) {
  std::istringstream in("; MaxProcs = 31\n");
  const ParseResult r = parse_swf(in, "x");
  EXPECT_EQ(r.header.at("MaxProcs"), "31");
}

TEST(Parser, WriterRoundTrip) {
  std::istringstream in(kFixture);
  const ParseResult original = parse_swf(in, "fixture");

  std::ostringstream out;
  write_swf(out, original.trace);
  std::istringstream in2(out.str());
  const ParseResult reparsed = parse_swf(in2, "fixture");

  ASSERT_EQ(reparsed.trace.size(), original.trace.size());
  EXPECT_EQ(reparsed.trace.machine_procs(), original.trace.machine_procs());
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    EXPECT_EQ(reparsed.trace[i].submit_time, original.trace[i].submit_time);
    EXPECT_EQ(reparsed.trace[i].run_time, original.trace[i].run_time);
    EXPECT_EQ(reparsed.trace[i].requested_procs, original.trace[i].requested_procs);
    EXPECT_EQ(reparsed.trace[i].requested_time, original.trace[i].requested_time);
  }
}

TEST(Parser, FuzzedInputNeverCrashes) {
  // Failure injection: arbitrary byte soup must either parse (yielding a
  // possibly empty trace) or throw std::runtime_error — never crash or
  // hang. Deterministic pseudo-random fuzz corpus.
  util::Rng rng(0xf022);
  for (int iter = 0; iter < 200; ++iter) {
    std::string soup;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    for (std::size_t i = 0; i < len; ++i) {
      // Mix digits, whitespace, signs, newlines, and raw bytes.
      static const char alphabet[] = "0123456789 -;.\n\r\te+xyzABC";
      soup += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(alphabet)) - 2))];
    }
    std::istringstream in(soup);
    try {
      const ParseResult r = parse_swf(in, "fuzz");
      EXPECT_GE(r.trace.machine_procs(), 0);
    } catch (const std::runtime_error&) {
      // acceptable outcome
    }
  }
}

TEST(Parser, TruncatedJobLineThrows) {
  std::istringstream in("1 0 0 10 1 -1 -1 1 20\n");  // only 9 fields
  EXPECT_THROW(parse_swf(in, "x"), std::runtime_error);
}

TEST(Parser, HeaderOnlyFileYieldsEmptyTrace) {
  std::istringstream in("; MaxProcs: 64\n; Computer: Ghost\n");
  const ParseResult r = parse_swf(in, "empty");
  EXPECT_EQ(r.trace.size(), 0u);
  EXPECT_EQ(r.trace.machine_procs(), 64);
}

TEST(Parser, MissingFileThrows) {
  EXPECT_THROW(parse_swf_file("/nonexistent/trace.swf"), std::runtime_error);
}

TEST(Parser, FileRoundTripWithName) {
  std::istringstream in(kFixture);
  const ParseResult original = parse_swf(in, "fixture");
  const std::string path = ::testing::TempDir() + "/roundtrip.swf";
  ASSERT_TRUE(write_swf_file(path, original.trace));
  const ParseResult reparsed = parse_swf_file(path);
  EXPECT_EQ(reparsed.trace.name(), "roundtrip");
  EXPECT_EQ(reparsed.trace.size(), original.trace.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlbf::swf
