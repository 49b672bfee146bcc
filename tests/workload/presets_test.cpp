#include "workload/presets.h"

#include <gtest/gtest.h>
#include <ostream>

namespace rlbf::workload {

// Deterministic test names: the default byte dump would embed the address
// held by the std::string name, which changes from run to run. Declared in
// rlbf::workload (not the anonymous namespace) so argument-dependent lookup
// finds it.
static void PrintTo(const PresetTargets& t, std::ostream* os) { *os << t.name; }

namespace {

class PresetCalibrationTest : public ::testing::TestWithParam<PresetTargets> {};

TEST_P(PresetCalibrationTest, MatchesTable2Statistics) {
  const PresetTargets t = GetParam();
  const swf::Trace trace = make_preset(t, 6000, 42);
  EXPECT_NO_THROW(trace.validate());
  const swf::TraceStats s = trace.stats();

  EXPECT_EQ(s.max_procs, t.machine_procs);
  EXPECT_EQ(s.job_count, 6000u);
  // Calibrated means land within 15% of the published Table-2 values
  // (sampling noise differs between the pilot batch and the final trace).
  EXPECT_NEAR(s.mean_interarrival, t.mean_interarrival, 0.15 * t.mean_interarrival);
  const double rt = t.user_estimates ? s.mean_request_time : s.mean_run_time;
  EXPECT_NEAR(rt, t.mean_request_time, 0.15 * t.mean_request_time);
  // Size means are matched analytically, not calibrated: wider tolerance.
  EXPECT_NEAR(s.mean_requested_procs, t.mean_requested_procs,
              0.30 * t.mean_requested_procs);
  EXPECT_EQ(s.has_user_estimates, t.user_estimates);
}

INSTANTIATE_TEST_SUITE_P(Table2, PresetCalibrationTest,
                         ::testing::Values(sdsc_sp2_targets(), hpc2n_targets(),
                                           lublin1_targets(), lublin2_targets()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Presets, DeterministicInSeed) {
  const swf::Trace a = sdsc_sp2_like(7, 300);
  const swf::Trace b = sdsc_sp2_like(7, 300);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].run_time, b[i].run_time);
    EXPECT_EQ(a[i].requested_time, b[i].requested_time);
  }
}

TEST(Presets, DifferentSeedsDiffer) {
  const swf::Trace a = lublin_1(1, 300);
  const swf::Trace b = lublin_1(2, 300);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].run_time == b[i].run_time) ++same;
  }
  EXPECT_LT(same, 50);
}

TEST(Presets, RealLikeTracesOverestimate) {
  const swf::Trace t = sdsc_sp2_like(3, 2000);
  std::size_t over = 0;
  for (const auto& j : t.jobs()) {
    ASSERT_GE(j.requested_time, j.run_time);
    if (j.requested_time > j.run_time) ++over;
  }
  // The vast majority of users over-request.
  EXPECT_GT(over, t.size() * 3 / 4);
}

TEST(Presets, SyntheticTracesExposeOnlyActualRuntime) {
  const swf::Trace t = lublin_2(3, 500);
  for (const auto& j : t.jobs()) EXPECT_EQ(j.requested_time, swf::kUnknown);
}

TEST(Presets, AllPresetsReturnsFourTable2Rows) {
  const auto traces = all_presets(1, 400);
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_EQ(traces[0].name(), "SDSC-SP2");
  EXPECT_EQ(traces[1].name(), "HPC2N");
  EXPECT_EQ(traces[2].name(), "Lublin-1");
  EXPECT_EQ(traces[3].name(), "Lublin-2");
  for (const auto& t : traces) EXPECT_EQ(t.size(), 400u);
}

TEST(Presets, OfferedLoadIsRealistic) {
  // The paper's traces describe busy production machines. Offered load
  // = mean(run * procs) / (mean interarrival * machine size) should be
  // meaningfully above idle and below saturation for every preset.
  for (const auto& t : all_presets(11, 4000)) {
    const auto s = t.stats();
    double work = 0.0;
    for (const auto& j : t.jobs()) {
      work += static_cast<double>(j.run_time) * static_cast<double>(j.procs());
    }
    work /= static_cast<double>(t.size());
    const double load =
        work / (s.mean_interarrival * static_cast<double>(t.machine_procs()));
    // Note: offered load uses mean(run * procs), so the size-runtime
    // correlation can push it slightly above 1 even when the served
    // utilization stays below capacity.
    EXPECT_GT(load, 0.15) << t.name();
    EXPECT_LT(load, 1.3) << t.name();
  }
}

}  // namespace
}  // namespace rlbf::workload
