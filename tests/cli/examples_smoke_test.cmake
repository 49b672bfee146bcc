# Smoke test for the example programs that have no rlbf_run or bench
# twin — quickstart, fairness_report and swf_tools: each runs end to end
# at a tiny size and must exit 0, and a malformed count must be a usage
# error (exit 2), never a crash or a silent success. Driven by ctest
# (label: smoke):
#
#   cmake -DQUICKSTART=<binary> -DFAIRNESS_REPORT=<binary>
#         -DSWF_TOOLS=<binary> -DRLBF_RUN=<binary> -DWORK_DIR=<scratch>
#         -P examples_smoke_test.cmake

foreach(var QUICKSTART FAIRNESS_REPORT SWF_TOOLS RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "examples_smoke_test.cmake: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures 0)

# run_case(<case> <expected rc> <stdout var> <program> [args...]): run a
# program in WORK_DIR, require the exit code, capture stdout.
function(run_case case expect_rc out_var)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: expected exit ${expect_rc}, got '${rc}' "
                    "(a signal name or 128+ code means a crash)\n${out}\n${err}")
  else()
    message(STATUS "${case}: ok (exit ${rc})")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# expect_match(<case> <text> <regex>)
function(expect_match case text pattern)
  if(NOT "${text}" MATCHES "${pattern}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: output does not match '${pattern}':\n${text}")
  endif()
endfunction()

# ---- 1. quickstart and fairness_report at 300 jobs -------------------
run_case("quickstart 300 1" 0 out "${QUICKSTART}" 300 1)
expect_match("quickstart deploys the agent" "${out}" "FCFS\\+RLBF: avg bounded slowdown")
run_case("fairness_report 300" 0 out "${FAIRNESS_REPORT}" 300)
expect_match("fairness_report sizes the trace" "${out}" "Trace: SDSC-SP2, 300 jobs")
expect_match("fairness_report names the least fair" "${out}" "Least fair strategy: ")

# ---- 2. swf_tools: generate -> stats -> schedule -> scrub -> fairness --
run_case("swf_tools generate" 0 out "${SWF_TOOLS}" generate SDSC-SP2 trace.swf 300 7)
expect_match("generate writes the trace" "${out}" "wrote 300 jobs to trace\\.swf")
run_case("swf_tools stats" 0 out "${SWF_TOOLS}" stats trace.swf)
expect_match("stats counts the jobs" "${out}" "jobs +300 ")
run_case("swf_tools schedule" 0 out "${SWF_TOOLS}" schedule trace.swf FCFS easy)
expect_match("schedule names the scheduler" "${out}" "scheduler +FCFS\\+EASY ")
run_case("swf_tools scrub" 0 out "${SWF_TOOLS}" scrub trace.swf scrubbed.swf 20 3600)
expect_match("scrub writes the trace" "${out}" "jobs to scrubbed\\.swf")
run_case("swf_tools fairness" 0 out "${SWF_TOOLS}" fairness scrubbed.swf FCFS easy)
expect_match("fairness reports Jain" "${out}" "bsld Jain index")

# ---- 3. swf_tools schedules with a model trained by rlbf_run ---------
run_case("rlbf_run train sdsc-tiny" 0 out "${RLBF_RUN}" train --spec=sdsc-tiny --store=store)
string(REGEX MATCH "store/[0-9a-f]+\\.model" model "${out}")
if(NOT model)
  math(EXPR failures "${failures} + 1")
  message(WARNING "train printed no <store>/<key>.model path:\n${out}")
else()
  run_case("swf_tools schedule rlbf" 0 out "${SWF_TOOLS}" schedule trace.swf FCFS rlbf "${model}")
  expect_match("schedule deploys the agent" "${out}" "scheduler +FCFS\\+RLBF ")
endif()

# ---- 4. malformed counts are usage errors ----------------------------
run_case("quickstart abc 1" 2 out "${QUICKSTART}" abc 1)
run_case("quickstart 0" 2 out "${QUICKSTART}" 0)
run_case("fairness_report abc" 2 out "${FAIRNESS_REPORT}" abc)
run_case("fairness_report 0" 2 out "${FAIRNESS_REPORT}" 0)
run_case("swf_tools generate abc" 2 out "${SWF_TOOLS}" generate SDSC-SP2 x.swf abc)
run_case("swf_tools generate 0" 2 out "${SWF_TOOLS}" generate SDSC-SP2 x.swf 0)
if(EXISTS "${WORK_DIR}/x.swf")
  math(EXPR failures "${failures} + 1")
  message(WARNING "swf_tools generate wrote x.swf despite a bad job count")
endif()
run_case("swf_tools scrub abc" 2 out "${SWF_TOOLS}" scrub trace.swf y.swf abc)

if(failures GREATER 0)
  message(FATAL_ERROR "examples smoke: ${failures} case(s) failed")
endif()
message(STATUS "examples smoke: all checks passed")
