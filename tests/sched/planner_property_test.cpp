// Schedule properties of conservative and slack backfilling over the
// generated workloads: the machine is never oversubscribed at any
// instant, nobody starts before submitting, and every job runs exactly
// once at its own width for its own runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sched/conservative_backfill.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "workload/presets.h"

namespace rlbf::sched {
namespace {

struct PlannerPropertyCase {
  const char* trace_name;
  std::uint64_t seed;
  bool slack;  // false = conservative
};

// Deterministic test names: the default byte dump would embed the
// trace_name pointer, which changes from run to run.
void PrintTo(const PlannerPropertyCase& c, std::ostream* os) {
  *os << c.trace_name << "_seed" << c.seed << (c.slack ? "_slack" : "_cons");
}

swf::Trace make_trace(const PlannerPropertyCase& c) {
  const std::string name = c.trace_name;
  if (name == "SDSC-SP2") return workload::sdsc_sp2_like(c.seed, 600);
  if (name == "Lublin-2") return workload::lublin_2(c.seed, 600);
  return workload::hpc2n_like(c.seed, 600);
}

class PlannerPropertyTest : public ::testing::TestWithParam<PlannerPropertyCase> {};

TEST_P(PlannerPropertyTest, ScheduleRespectsMachineAndJobs) {
  const auto param = GetParam();
  const swf::Trace trace = make_trace(param);
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  std::unique_ptr<sim::BackfillChooser> chooser;
  if (param.slack) {
    chooser = std::make_unique<SlackBackfillChooser>();
  } else {
    chooser = std::make_unique<ConservativeBackfillChooser>();
  }
  const auto results = sim::simulate(trace, fcfs, est, chooser.get());

  // Exactly once each, at its own width and runtime, never before submit.
  ASSERT_EQ(results.size(), trace.size());
  std::size_t backfilled = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].job_index, i);
    EXPECT_GE(results[i].start_time, trace[i].submit_time) << "job " << i;
    EXPECT_EQ(results[i].procs, trace[i].procs()) << "job " << i;
    EXPECT_EQ(results[i].end_time - results[i].start_time, trace[i].run_time) << "job " << i;
    if (results[i].backfilled) ++backfilled;
  }
  EXPECT_GT(backfilled, 0u);

  // Event sweep: a job holds its processors over [start, end), so at
  // equal times releases apply before starts. Zero-length jobs hold none.
  std::vector<std::pair<std::int64_t, std::int64_t>> events;  // (time, delta)
  for (const auto& r : results) {
    if (r.end_time == r.start_time) continue;
    events.emplace_back(r.start_time, r.procs);
    events.emplace_back(r.end_time, -r.procs);
  }
  std::sort(events.begin(), events.end());
  std::int64_t in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    ASSERT_LE(in_use, trace.machine_procs()) << "at t=" << time;
    ASSERT_GE(in_use, 0) << "at t=" << time;
  }
  EXPECT_EQ(in_use, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PlannerPropertyTest,
    ::testing::Values(PlannerPropertyCase{"SDSC-SP2", 1, false},
                      PlannerPropertyCase{"SDSC-SP2", 1, true},
                      PlannerPropertyCase{"SDSC-SP2", 2, false},
                      PlannerPropertyCase{"SDSC-SP2", 2, true},
                      PlannerPropertyCase{"Lublin-2", 3, false},
                      PlannerPropertyCase{"Lublin-2", 3, true},
                      PlannerPropertyCase{"Lublin-2", 4, false},
                      PlannerPropertyCase{"Lublin-2", 4, true},
                      PlannerPropertyCase{"HPC2N", 5, false},
                      PlannerPropertyCase{"HPC2N", 5, true},
                      PlannerPropertyCase{"HPC2N", 6, false},
                      PlannerPropertyCase{"HPC2N", 6, true}));

}  // namespace
}  // namespace rlbf::sched
