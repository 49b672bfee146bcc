# Schema sanity for `rlbf_run bench`: run a CI-sized bench, then parse
# the emitted JSON report, the metrics registry dump, and the Chrome
# trace with CMake's own JSON parser (string(JSON), CMake >= 3.19) and
# check every field the BENCH_PR<n>.json perf trajectory relies on.
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P bench_json_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_json_test.cmake: -D${var}=... is required")
  endif()
endforeach()
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(STATUS "bench_json_test: CMake ${CMAKE_VERSION} lacks string(JSON); "
                 "skipping schema validation")
  return()
endif()
cmake_policy(SET CMP0057 NEW)  # IN_LIST in if(); script mode sets no policies
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The tag carries a quote and a backslash: every string the report
# writes must be JSON-escaped, or the gate's own reader rejects it.
set(tag "x\"y\\z")
execute_process(
  COMMAND "${RLBF_RUN}" bench --quick --jobs=500 --dist_jobs=100 "--tag=${tag}"
          --out=bench.json --metrics_out=metrics.json --trace_out=trace.json
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rlbf_run bench failed (exit ${rc}):\n${err}")
endif()

set(failures 0)

# require(<json var> <description> [MEMBER <path...>] [GE <value> <path...>])
# Small assertion helpers over string(JSON); any parse error fails the
# case with the path named.
function(require_member doc_var desc)
  string(JSON value ERROR_VARIABLE json_err GET "${${doc_var}}" ${ARGN})
  if(json_err)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${desc}: missing ${ARGN} (${json_err})")
  else()
    string(SUBSTRING "${value}" 0 40 value)  # objects print as one line
    string(REPLACE "\n" "" value "${value}")
    message(STATUS "${desc}: ${ARGN} = ${value}")
  endif()
endfunction()

function(require_positive doc_var desc)
  string(JSON value ERROR_VARIABLE json_err GET "${${doc_var}}" ${ARGN})
  if(json_err OR NOT value GREATER 0)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${desc}: ${ARGN} should be > 0, got '${value}' ${json_err}")
  else()
    message(STATUS "${desc}: ${ARGN} = ${value}")
  endif()
endfunction()

# ---- the bench report: the pinned perf-trajectory fields.
file(READ "${WORK_DIR}/bench.json" bench)
# Schema v3: version stamp + provenance block (tag, toolchain/platform,
# libm fingerprint id) so two checked-in reports are comparable, plus
# the deterministic work-counter section.
string(JSON schema_version ERROR_VARIABLE json_err GET "${bench}" schema_version)
if(json_err OR NOT schema_version EQUAL 3)
  math(EXPR failures "${failures} + 1")
  message(WARNING "bench report: schema_version should be 3, got "
                  "'${schema_version}' ${json_err}")
else()
  message(STATUS "bench report: schema_version = 3")
endif()
string(JSON tag_back ERROR_VARIABLE json_err GET "${bench}" source tag)
if(json_err OR NOT tag_back STREQUAL tag)
  math(EXPR failures "${failures} + 1")
  message(WARNING "bench report: source.tag should read back as '${tag}', "
                  "got '${tag_back}' ${json_err}")
else()
  message(STATUS "bench report: source.tag round-trips '${tag}'")
endif()
require_member(bench "bench report" source platform)
require_member(bench "bench report" source libm)
require_member(bench "bench report" config scenario)
require_member(bench "bench report" config seed)
require_positive(bench "bench report" sim runs)
require_positive(bench "bench report" sim wall_seconds_total)
require_positive(bench "bench report" sim wall_seconds_min)
require_positive(bench "bench report" sim events_processed)
require_positive(bench "bench report" sim events_per_second)
require_positive(bench "bench report" trace_cache hits)
require_positive(bench "bench report" trace_cache misses)
require_member(bench "bench report" trace_cache evictions)
require_positive(bench "bench report" train epochs_run)
require_positive(bench "bench report" train wall_seconds)
require_positive(bench "bench report" train epoch_seconds_mean)
require_positive(bench "bench report" sweep instances)
require_positive(bench "bench report" dist jobs)
require_positive(bench "bench report" dist job_seconds_total)
require_positive(bench "bench report" dist worker_utilization)
# Schema v3 counters: the train phase exercises the NN hot paths (batched
# forwards included) and the sim phase maintains its queue incrementally.
# sim.schedule_recomputations counts only ACTUAL full sorts — with the
# bench's time-invariant priority policies (FCFS/SJF) it is rightly 0,
# so it is member-checked, not positivity-checked.
require_positive(bench "bench report" counters nn.forward_calls)
require_positive(bench "bench report" counters nn.forward_value_calls)
require_positive(bench "bench report" counters nn.batched_forward_calls)
require_positive(bench "bench report" counters nn.batched_forward_rows)
require_positive(bench "bench report" counters nn.backward_calls)
require_member(bench "bench report" counters sim.schedule_recomputations)
require_positive(bench "bench report" counters sim.queue_incremental_inserts)
require_member(bench "bench report" counters sim.backfill_decisions)

# ---- the metrics registry dump: the three sections, and a counter from
# every instrumented layer.
file(READ "${WORK_DIR}/metrics.json" metrics)
require_member(metrics "metrics dump" counters)
require_member(metrics "metrics dump" gauges)
require_member(metrics "metrics dump" histograms)
require_positive(metrics "metrics dump" counters sim.events_processed)
require_positive(metrics "metrics dump" counters rl.epochs)
require_positive(metrics "metrics dump" counters sweep.instances)
require_positive(metrics "metrics dump" counters dist.jobs)
require_positive(metrics "metrics dump" counters exp.trace_cache.hits)
require_positive(metrics "metrics dump" histograms sim.simulate_seconds count)
require_positive(metrics "metrics dump" histograms rl.epoch_seconds count)

# ---- the Chrome trace: valid JSON, spans from all four layers, and
# the wall-clock anchor obs::merge uses to align processes.
file(READ "${WORK_DIR}/trace.json" trace)
require_positive(trace "trace" epochAnchorUs)
string(JSON n_events ERROR_VARIABLE json_err LENGTH "${trace}" traceEvents)
if(json_err OR NOT n_events GREATER 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "trace: no traceEvents array (${json_err})")
else()
  message(STATUS "trace: ${n_events} event(s)")
  set(seen_cats "")
  math(EXPR last "${n_events} - 1")
  foreach(i RANGE ${last})
    string(JSON cat GET "${trace}" traceEvents ${i} cat)
    string(JSON ph GET "${trace}" traceEvents ${i} ph)
    if(NOT ph STREQUAL "X")
      math(EXPR failures "${failures} + 1")
      message(WARNING "trace: event ${i} is not a complete event (ph=${ph})")
    endif()
    list(APPEND seen_cats "${cat}")
  endforeach()
  foreach(cat sim train sweep dist)
    if(NOT "${cat}" IN_LIST seen_cats)
      math(EXPR failures "${failures} + 1")
      message(WARNING "trace: no spans from the '${cat}' layer")
    else()
      message(STATUS "trace: '${cat}' layer spans present")
    endif()
  endforeach()
endif()

# ---- the gate reads the report back, and its verdict names the two
# reports: file names with a quote and a backslash must survive both.
set(odd_path "b\"a\\se.json")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${WORK_DIR}/bench.json"
                                         "${WORK_DIR}/${odd_path}")
execute_process(
  COMMAND "${RLBF_RUN}" bench "--compare=${odd_path}" --candidate=bench.json
          --verdict_out=verdict.json
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "bench --compare of the report against itself: expected "
                  "exit 0, got '${rc}'\n${out}\n${err}")
else()
  file(READ "${WORK_DIR}/verdict.json" verdict)
  string(JSON base_back ERROR_VARIABLE json_err GET "${verdict}" base)
  if(json_err OR NOT base_back STREQUAL odd_path)
    math(EXPR failures "${failures} + 1")
    message(WARNING "verdict: base should read back as '${odd_path}', got "
                    "'${base_back}' ${json_err}")
  else()
    message(STATUS "bench --compare: exit 0, verdict base round-trips")
  endif()
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "bench JSON schema: ${failures} check(s) failed")
endif()
message(STATUS "bench JSON schema: all checks passed")
