// The paper's Table-3 base scheduling policies. All are priority
// functions where a LOWER score is scheduled FIRST:
//
//   FCFS   score = st                    (arrival order)
//   SJF    score = rt                    (shortest request first)
//   WFP3   score = -(wt/rt)^3 * nt       (favors long-waiting, short,
//                                         wide-wait jobs; Tang et al. '09)
//   F1     score = log10(rt)*nt + 870*log10(st)
//                                        (Carastan-Santos & de Camargo,
//                                         SC'17 nonlinear-regression fit)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace rlbf::sched {

class FcfsPolicy final : public sim::PriorityPolicy {
 public:
  double score(const swf::Job& job, std::int64_t now) const override;
  std::string name() const override { return "FCFS"; }
  bool time_invariant() const override { return true; }  // score = submit time
};

class SjfPolicy final : public sim::PriorityPolicy {
 public:
  double score(const swf::Job& job, std::int64_t now) const override;
  std::string name() const override { return "SJF"; }
  bool time_invariant() const override { return true; }  // score = request time
};

class Wfp3Policy final : public sim::PriorityPolicy {
 public:
  double score(const swf::Job& job, std::int64_t now) const override;
  std::string name() const override { return "WFP3"; }
};

class F1Policy final : public sim::PriorityPolicy {
 public:
  double score(const swf::Job& job, std::int64_t now) const override;
  std::string name() const override { return "F1"; }
  // score = f(request time, width, submit time): no wait term.
  bool time_invariant() const override { return true; }
};

/// Construct a policy by its Table-3 name ("FCFS", "SJF", "WFP3", "F1");
/// throws std::invalid_argument for unknown names.
std::unique_ptr<sim::PriorityPolicy> make_policy(const std::string& name);

/// All Table-3 policy names in paper order.
std::vector<std::string> all_policy_names();

}  // namespace rlbf::sched
