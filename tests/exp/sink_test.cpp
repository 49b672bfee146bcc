#include "exp/sink.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

#include "exp/config.h"
#include "obs/json.h"

namespace rlbf::exp {
namespace {

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(obs::json::escape("plain"), "plain");
  EXPECT_EQ(obs::json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json::escape("a\\b"), "a\\\\b");
}

// Regression: a scenario label containing control characters used to be
// emitted raw, producing invalid JSON (a literal newline inside a
// string). Every byte < 0x20 must leave as an escape.
TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(obs::json::escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(obs::json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json::escape("cr\rlf\n"), "cr\\rlf\\n");
  EXPECT_EQ(obs::json::escape(std::string("nul\x01\x1f!")), "nul\\u0001\\u001f!");
}

TEST(WriteSummaryJson, InfinityRendersAsNullNotBareInf) {
  SummaryRow row;
  row.scenario = "s";
  row.label = "l";
  row.bsld = std::numeric_limits<double>::infinity();
  row.avg_wait = -std::numeric_limits<double>::infinity();
  std::ostringstream os;
  write_summary_json(os, {row});
  // "inf" has no JSON literal; a degenerate metric must not poison the
  // whole summary file.
  EXPECT_NE(os.str().find("\"bsld\": null"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("\"avg_wait\": null"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("inf"), std::string::npos) << os.str();
}

TEST(WriteSummaryJson, HostileLabelStaysValidJson) {
  SummaryRow row;
  row.scenario = "scn\nwith\tnewline";
  row.label = "label \"quoted\" \x02";
  row.seed = 1;
  row.jobs = 10;
  row.bsld = 2.5;
  std::ostringstream os;
  write_summary_json(os, {row});
  const std::string out = os.str();
  // No raw control bytes may survive inside the emitted strings: the
  // only newlines are the structural ones between JSON lines.
  EXPECT_NE(out.find("scn\\nwith\\tnewline"), std::string::npos) << out;
  EXPECT_NE(out.find("label \\\"quoted\\\" \\u0002"), std::string::npos) << out;
  EXPECT_EQ(out.find("scn\nwith"), std::string::npos) << out;
}

// The summary files' bytes, pinned to the layout the writers have
// always produced: a hostile label, non-finite metrics (CSV keeps the
// to_chars text, JSON writes null), NaN as empty/null, CI columns
// absent and present, and a seed above 2^53 that a double cannot hold.
TEST(WriteSummary, BytesArePinned) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SummaryRow> rows(3);
  rows[0].scenario = "scn,with \"q\"\nnl";
  rows[0].label = "lab, \"x\" \x02 end";
  rows[0].seed = 7;
  rows[0].jobs = 10;
  rows[0].bsld = 2.5;
  rows[0].avg_wait = 3.25;
  rows[0].utilization = 0.5;
  rows[0].backfilled = 4;
  rows[0].killed = 0;
  rows[1].scenario = "degenerate";
  rows[1].label = "l";
  rows[1].seed = 1;
  rows[1].bsld = inf;
  rows[1].avg_wait = -inf;
  rows[1].backfilled = inf;
  rows[1].ci_lo = -inf;
  rows[1].ci_hi = inf;
  rows[2].scenario = "big-seed";
  rows[2].label = "protocol";
  rows[2].seed = 18446744073709551557ull;
  rows[2].jobs = 12345;
  rows[2].bsld = 1.23456789;
  rows[2].ci_lo = 1.1;
  rows[2].ci_hi = 1.4;

  std::ostringstream csv;
  write_summary_csv(csv, rows);
  EXPECT_EQ(csv.str(),
            "scenario,label,seed,jobs,bsld,avg_wait,utilization,backfilled,"
            "killed,ci_lo,ci_hi\n"
            "\"scn,with \"\"q\"\"\nnl\",\"lab, \"\"x\"\" \x02 end\",7,10,2.5,"
            "3.25,0.5,4,0,,\n"
            "degenerate,l,1,0,inf,-inf,,inf,,-inf,inf\n"
            "big-seed,protocol,18446744073709551557,12345,1.23457,,,,,1.1,1.4\n");

  std::ostringstream json;
  write_summary_json(json, rows);
  EXPECT_EQ(json.str(),
            "[\n"
            "  {\"scenario\": \"scn,with \\\"q\\\"\\nnl\", \"label\": \"lab, "
            "\\\"x\\\" \\u0002 end\", \"seed\": 7, \"jobs\": 10, \"bsld\": 2.5, "
            "\"avg_wait\": 3.25, \"utilization\": 0.5, \"backfilled\": 4, "
            "\"killed\": 0},\n"
            "  {\"scenario\": \"degenerate\", \"label\": \"l\", \"seed\": 1, "
            "\"jobs\": 0, \"bsld\": null, \"avg_wait\": null, \"utilization\": "
            "null, \"backfilled\": null, \"killed\": null, \"ci_lo\": null, "
            "\"ci_hi\": null},\n"
            "  {\"scenario\": \"big-seed\", \"label\": \"protocol\", \"seed\": "
            "18446744073709551557, \"jobs\": 12345, \"bsld\": 1.23457, "
            "\"avg_wait\": null, \"utilization\": null, \"backfilled\": null, "
            "\"killed\": null, \"ci_lo\": 1.1, \"ci_hi\": 1.4}\n"
            "]\n");

  // The one-row renderings are the file lines without their decoration.
  EXPECT_EQ(summary_csv_row(rows[1]), "degenerate,l,1,0,inf,-inf,,inf,,-inf,inf");
  EXPECT_EQ(summary_json_row(rows[2]),
            "{\"scenario\": \"big-seed\", \"label\": \"protocol\", \"seed\": "
            "18446744073709551557, \"jobs\": 12345, \"bsld\": 1.23457, "
            "\"avg_wait\": null, \"utilization\": null, \"backfilled\": null, "
            "\"killed\": null, \"ci_lo\": 1.1, \"ci_hi\": 1.4}");
}

TEST(Formatting, MetricAndCountRenderings) {
  EXPECT_EQ(format_metric(3.14), "3.14");
  EXPECT_EQ(format_metric(0.0), "0");
  EXPECT_EQ(format_metric(123456.75), "123457");  // %.6g rounding
  EXPECT_EQ(format_metric(std::nan("")), "");
  EXPECT_EQ(format_count(42.0), "42");
  EXPECT_EQ(format_count(std::nan("")), "");
}

// The golden-portability fix: output formatting is pinned to the C
// locale, so a host (or embedding process) running with a comma-decimal
// LC_NUMERIC cannot turn "3.14" into "3,14" in CSVs and goldens. The
// assertions run either way; when no comma-decimal locale is installed
// they still pin the C-locale behavior.
TEST(Formatting, CommaDecimalLocaleCannotLeakIntoOutput) {
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  const char* candidates[] = {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8",
                              "fr_FR",       "nl_NL", "C.UTF-8"};
  std::string active;
  for (const char* name : candidates) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      active = name;
      break;
    }
  }

  EXPECT_EQ(format_metric(3.14), "3.14") << "under locale " << active;
  EXPECT_EQ(format_metric(0.5), "0.5");
  EXPECT_EQ(format_count(1234.0), "1234");
  EXPECT_EQ(format_double_exact(0.5), "0.5");
  EXPECT_EQ(format_double_exact(3.5), "3.5");

  // Parsing is pinned the same way, both directions of the shard story:
  // values formatted on one host must parse on any other.
  double value = 0.0;
  EXPECT_TRUE(parse_number("3.14", &value));
  EXPECT_DOUBLE_EQ(value, 3.14);

  SummaryRow row;
  row.scenario = "s";
  row.label = "l";
  row.seed = 1;
  row.jobs = 1;
  row.bsld = 2.75;
  row.avg_wait = 1.5;
  row.utilization = 0.25;
  std::ostringstream os;
  write_summary_csv(os, {row});
  EXPECT_NE(os.str().find("2.75,1.5,0.25"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("2,75"), std::string::npos) << os.str();

  std::setlocale(LC_NUMERIC, saved.c_str());
}

// std::locale::global (unlike setlocale) reaches C++ stream insertion:
// without pinning, seed=100000 would render as "100.000" under a
// grouping locale — a phantom CSV column. A custom facet makes the test
// independent of which OS locales are installed.
TEST(Formatting, GlobalCppLocaleGroupingCannotLeakIntoOutput) {
  struct GroupingPunct : std::numpunct<char> {
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
    char do_decimal_point() const override { return ','; }
  };
  const std::locale previous =
      std::locale::global(std::locale(std::locale::classic(), new GroupingPunct));

  SummaryRow row;
  row.scenario = "s";
  row.label = "l";
  row.seed = 100000;
  row.jobs = 12345;
  row.bsld = 2.5;
  EXPECT_NE(summary_csv_row(row).find("100000,12345,2.5"), std::string::npos)
      << summary_csv_row(row);
  EXPECT_NE(summary_json_row(row).find("\"seed\": 100000, \"jobs\": 12345"),
            std::string::npos)
      << summary_json_row(row);

  ScenarioRun run;
  sim::JobResult result;
  result.job_index = 123456;
  result.submit_time = 1000000;
  run.results.push_back(result);
  std::ostringstream os;
  write_per_job_csv(os, run);
  EXPECT_NE(os.str().find("123456,1000000"), std::string::npos) << os.str();

  std::locale::global(previous);
}

TEST(SanitizeFilename, MapsSeparatorsToUnderscores) {
  EXPECT_EQ(sanitize_filename("sdsc-easy/load=0.5,policy=SJF"),
            "sdsc-easy_load_0.5_policy_SJF");
}

}  // namespace
}  // namespace rlbf::exp
