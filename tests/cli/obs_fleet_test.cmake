# The fleet-observability acceptance proof, end to end through the
# rlbf_run binary (label: smoke):
#
#   1. A 3-worker `rlbf_run orchestrate --metrics_out` produces a merged
#      metrics report whose summed counters EQUAL the single-process
#      run's counters — aggregation invents and loses nothing.
#   2. Turning the obs flags on does not change a byte of the
#      orchestrated run's stdout or result files (the determinism
#      contract, extended across process boundaries).
#   3. The merged Chrome trace carries the wall-clock epoch anchor,
#      per-worker process_name metadata, remapped pids, and the
#      supervisor's per-job spans.
#   4. `rlbf_run profile` on that trace is byte-deterministic.
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P obs_fleet_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_fleet_test.cmake: -D${var}=... is required")
  endif()
endforeach()
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(STATUS "obs_fleet_test: CMake ${CMAKE_VERSION} lacks string(JSON); "
                 "skipping")
  return()
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures 0)

# run_case(<case> <expected rc> <stdout var> ...argv): run rlbf_run,
# require the exit code, capture stdout.
function(run_case case expect_rc out_var)
  execute_process(
    COMMAND "${RLBF_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: expected exit ${expect_rc}, got '${rc}'\n${out}\n${err}")
  else()
    message(STATUS "${case}: ok (exit ${rc})")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# counter_at(<out var> <metrics json text> <counter name>): a counter
# value, from either a registry dump or a merged fleet report — both
# keep counters under a top-level "counters" object.
function(counter_at out_var doc name)
  string(JSON value ERROR_VARIABLE json_err GET "${doc}" counters ${name})
  if(json_err)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "counter ${name}: ${json_err}")
    set(value "-1")
  endif()
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

# One sweep dimension (no ';'), so the grid survives CMake list
# re-expansion through run_case's ARGN without escape gymnastics.
set(sweep_grid "load=0.6,0.8,1.0")
set(sweep_args run --scenario=sdsc-easy --jobs=300 --seed=7 --threads=2
    --sweep=${sweep_grid} --format=both)
set(orch_args orchestrate --scenario=sdsc-easy --jobs=300 --seed=7 --threads=2
    --sweep=${sweep_grid} --format=both --workers=3 --quiet)

# ---- 1. merged fleet counters == single-process counters -------------
run_case("single-process reference" 0 ref_out
         ${sweep_args} --out_dir=ref --metrics_out=ref.metrics.json)
run_case("orchestrate 3 workers with sidecars" 0 fleet_out
         ${orch_args} --out_dir=fleet
         --metrics_out=fleet.metrics.json --trace_out=fleet.trace.json)
file(READ "${WORK_DIR}/ref.metrics.json" ref_metrics)
file(READ "${WORK_DIR}/fleet.metrics.json" fleet_metrics)
foreach(name sim.events_processed sim.schedule_recomputations sweep.instances)
  counter_at(ref_value "${ref_metrics}" ${name})
  counter_at(fleet_value "${fleet_metrics}" ${name})
  if(ref_value EQUAL -1 OR NOT ref_value EQUAL fleet_value)
    math(EXPR failures "${failures} + 1")
    message(WARNING "counter ${name}: single-process ${ref_value} != "
                    "merged fleet ${fleet_value}")
  else()
    message(STATUS "counter ${name}: fleet == single-process (${ref_value})")
  endif()
endforeach()
# The merged report names every source: 3 workers + the supervisor.
string(JSON n_sources ERROR_VARIABLE json_err LENGTH "${fleet_metrics}" sources)
if(json_err OR NOT n_sources EQUAL 4)
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged metrics should name 4 sources, got '${n_sources}'")
endif()
# Gauges carry their writing source; the supervisor owns utilization.
string(JSON util_src ERROR_VARIABLE json_err GET "${fleet_metrics}"
       gauges dist.worker_utilization source)
if(json_err OR NOT util_src STREQUAL "supervisor")
  math(EXPR failures "${failures} + 1")
  message(WARNING "dist.worker_utilization should be tagged 'supervisor', "
                  "got '${util_src}' ${json_err}")
endif()

# ---- 2. obs flags change no result byte, even orchestrated ------------
run_case("orchestrate with obs OFF" 0 plain_out ${orch_args} --out_dir=plain)
# The two runs' stdout differs only by the out_dir name they report.
string(REPLACE "-> fleet/" "-> OUT/" fleet_norm "${fleet_out}")
string(REPLACE "-> plain/" "-> OUT/" plain_norm "${plain_out}")
if(NOT fleet_norm STREQUAL plain_norm)
  math(EXPR failures "${failures} + 1")
  message(WARNING "obs flags changed orchestrate stdout:\n--- obs on\n"
                  "${fleet_out}\n--- obs off\n${plain_out}")
else()
  message(STATUS "orchestrate stdout: byte-identical with obs on/off")
endif()
file(GLOB_RECURSE fleet_files RELATIVE "${WORK_DIR}/fleet" "${WORK_DIR}/fleet/*")
file(GLOB_RECURSE plain_files RELATIVE "${WORK_DIR}/plain" "${WORK_DIR}/plain/*")
if(NOT "${fleet_files}" STREQUAL "${plain_files}")
  math(EXPR failures "${failures} + 1")
  message(WARNING "obs flags changed the output file set: "
                  "[${fleet_files}] vs [${plain_files}]")
else()
  foreach(f ${fleet_files})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORK_DIR}/fleet/${f}" "${WORK_DIR}/plain/${f}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      math(EXPR failures "${failures} + 1")
      message(WARNING "obs flags changed result file ${f}")
    endif()
  endforeach()
  message(STATUS "orchestrate result files: byte-identical with obs on/off")
endif()

# ---- 3. the merged trace is a fleet timeline --------------------------
file(READ "${WORK_DIR}/fleet.trace.json" trace)
string(JSON anchor ERROR_VARIABLE json_err GET "${trace}" epochAnchorUs)
if(json_err OR NOT anchor GREATER 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged trace: epochAnchorUs should be > 0, got "
                  "'${anchor}' ${json_err}")
else()
  message(STATUS "merged trace: epochAnchorUs = ${anchor}")
endif()
# Chrome process rows for supervisor + workers, and spans from a pid
# other than the supervisor's 1 (the remap happened).
foreach(needle "\"process_name\"" "\"supervisor\"" "\"worker0\"" "job sweep-shard")
  if(NOT trace MATCHES "${needle}")
    math(EXPR failures "${failures} + 1")
    message(WARNING "merged trace: missing ${needle}")
  endif()
endforeach()
if(NOT trace MATCHES "\"pid\": [2-9]")
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged trace: no events on a remapped pid > 1")
else()
  message(STATUS "merged trace: process rows + remapped pids present")
endif()

# ---- 4. profile is byte-deterministic ---------------------------------
run_case("profile (first run)" 0 profile_a
         profile fleet.trace.json --csv_out=profile.csv)
run_case("profile (second run)" 0 profile_b profile fleet.trace.json)
if(NOT profile_a MATCHES "span +count +self_s" OR NOT profile_a MATCHES "job sweep-shard")
  math(EXPR failures "${failures} + 1")
  message(WARNING "profile output lacks the table or the job spans:\n${profile_a}")
endif()
string(REPLACE "# profile CSV written to profile.csv\n" "" profile_a "${profile_a}")
if(NOT profile_a STREQUAL profile_b)
  math(EXPR failures "${failures} + 1")
  message(WARNING "profile is not byte-deterministic:\n--- first\n${profile_a}"
                  "\n--- second\n${profile_b}")
else()
  message(STATUS "profile: byte-identical across repeated runs")
endif()
if(NOT EXISTS "${WORK_DIR}/profile.csv")
  math(EXPR failures "${failures} + 1")
  message(WARNING "profile did not write --csv_out")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "obs fleet smoke: ${failures} case(s) failed")
endif()
message(STATUS "obs fleet smoke: all checks passed")
