# The time-series telemetry acceptance proof, end to end through the
# rlbf_run binary (label: smoke):
#
#   1. `--series_out` changes ZERO bytes of a run's stdout or result
#      files — the determinism contract of the obs flags, extended to
#      the series recorder.
#   2. The same holds for `train` (store bytes included: the curves in
#      store meta are written whether or not a series file is) and for
#      an orchestrated sweep (worker sidecar series files + merge).
#   3. Two independent `train --series_out` runs produce series files
#      whose `curves` rendering is byte-identical — the recorded curve
#      VALUES are deterministic even though wall-clock microseconds in
#      the raw files are not.
#   4. `rlbf_run curves` itself is byte-deterministic across reruns, in
#      every format, on raw series files and on store-meta curves.
#   5. The merged fleet series carries the supervisor's per-job series,
#      and the strict reader rejects garbage with a named error.
#   6. The DQN and REINFORCE arms (abl-rl-dqn, abl-rl-reinforce) train
#      byte-identical .model/.spec files at --threads=1 and --threads=2,
#      and DQN's series show a nonzero train.loss at step 1: its replay
#      fills in epoch 1, so every epoch takes real gradient steps.
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P series_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "series_test.cmake: -D${var}=... is required")
  endif()
endforeach()
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

# expect_same_stdout(<case> <text a> <text b>): byte-equal stdout after
# the caller already normalized away intended differences.
function(expect_same_stdout case a b)
  if(NOT a STREQUAL b)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: stdout differs:\n--- first\n${a}\n--- second\n${b}")
  else()
    message(STATUS "${case}: stdout byte-identical")
  endif()
endfunction()

# expect_same_tree(<case> <dir a> <dir b>): same file set, every file
# byte-identical.
function(expect_same_tree case a b)
  file(GLOB_RECURSE a_files RELATIVE "${a}" "${a}/*")
  file(GLOB_RECURSE b_files RELATIVE "${b}" "${b}/*")
  list(SORT a_files)
  list(SORT b_files)
  if(NOT "${a_files}" STREQUAL "${b_files}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: file sets differ: [${a_files}] vs [${b_files}]")
    return()
  endif()
  set(ok 1)
  foreach(f ${a_files})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${a}/${f}" "${b}/${f}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      set(ok 0)
      message(WARNING "${case}: ${f} differs")
    endif()
  endforeach()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${case}: result files byte-identical")
  endif()
endfunction()

# expect_match(<case> <text> <needle regex>)
function(expect_match case text needle)
  if(NOT text MATCHES "${needle}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: missing '${needle}' in:\n${text}")
  else()
    message(STATUS "${case}: found '${needle}'")
  endif()
endfunction()

# ---- 1. `run --series_out` changes zero output bytes ------------------
set(run_args run --scenario=sdsc-easy --jobs=300 --seed=7 --threads=2
    --format=both)
run_case("run with series" 0 run_a
         ${run_args} --out_dir=run_a --series_out=run.series.jsonl)
run_case("run without series" 0 run_b ${run_args} --out_dir=run_b)
string(REPLACE "run_a/" "OUT/" run_a_norm "${run_a}")
string(REPLACE "run_b/" "OUT/" run_b_norm "${run_b}")
expect_same_stdout("run: --series_out on/off" "${run_a_norm}" "${run_b_norm}")
expect_same_tree("run: --series_out on/off"
                 "${WORK_DIR}/run_a" "${WORK_DIR}/run_b")
# Without metrics enabled the sampler latches nothing, but the file
# still opens with the meta header — never empty, trivially mergeable.
if(NOT EXISTS "${WORK_DIR}/run.series.jsonl")
  math(EXPR failures "${failures} + 1")
  message(WARNING "run did not write --series_out")
else()
  file(STRINGS "${WORK_DIR}/run.series.jsonl" series_head LIMIT_COUNT 1)
  expect_match("run series meta header" "${series_head}" "\"meta\": \"series\"")
endif()

# ---- 2. `train --series_out` changes zero stdout/store bytes ----------
set(budget --epochs=2 --trajectories=2 --traj_jobs=64 --jobs=800)
run_case("train with series" 0 train_on
         train --spec=sdsc-tiny --store=store_a ${budget} --quiet
         --series_out=train.series.jsonl)
run_case("train without series" 0 train_off
         train --spec=sdsc-tiny --store=store_b ${budget} --quiet)
string(REPLACE "store_a" "STORE" train_on_norm "${train_on}")
string(REPLACE "store_b" "STORE" train_off_norm "${train_off}")
expect_same_stdout("train: --series_out on/off"
                   "${train_on_norm}" "${train_off_norm}")
expect_same_tree("train: --series_out on/off"
                 "${WORK_DIR}/store_a" "${WORK_DIR}/store_b")
file(READ "${WORK_DIR}/train.series.jsonl" train_series)
expect_match("train series records the loss curve" "${train_series}"
             "\"series\": \"train\\.")

# ---- 3. curve values are deterministic across independent runs --------
run_case("train again with series" 0 train_again
         train --spec=sdsc-tiny --store=store_again ${budget} --quiet
         --series_out=train2.series.jsonl)
run_case("curves (first run)" 0 curves_a curves train.series.jsonl)
run_case("curves (rerun, same file)" 0 curves_b curves train.series.jsonl)
expect_same_stdout("curves rerun" "${curves_a}" "${curves_b}")
run_case("curves (independent train)" 0 curves_c curves train2.series.jsonl)
# wall_us differs between the two raw files; the rendered curves do not.
expect_same_stdout("curves across independent trains"
                   "${curves_a}" "${curves_c}")
expect_match("curves table header" "${curves_a}" "step")
expect_match("curves footer counts the series" "${curves_a}" "# [1-9][0-9]* series")

# ---- 4. curves formats + store-meta curves ----------------------------
run_case("curves CSV" 0 curves_csv curves train.series.jsonl --format=csv)
expect_match("curves CSV names the series" "${curves_csv}" "train\\.")
run_case("curves JSON" 0 curves_json curves train.series.jsonl --format=json)
expect_match("curves JSON shape" "${curves_json}" "\"series\"")
# A series name carrying a quote must render into JSON that parses back
# to the same name (string(JSON) needs CMake >= 3.19).
file(WRITE "${WORK_DIR}/quoted.series.jsonl"
     "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n"
     "{\"series\": \"a\\\"b\", \"step\": 1, \"value\": 2, \"wall_us\": 0}\n")
run_case("curves JSON, quoted series name" 0 quoted_json
         curves quoted.series.jsonl --format=json)
if(NOT CMAKE_VERSION VERSION_LESS 3.19)
  string(JSON quoted_name ERROR_VARIABLE json_err GET "${quoted_json}" series 0 name)
  if(json_err OR NOT quoted_name STREQUAL "a\"b")
    math(EXPR failures "${failures} + 1")
    message(WARNING "curves JSON: series name should read back as 'a\"b', got "
                    "'${quoted_name}' ${json_err}\n${quoted_json}")
  else()
    message(STATUS "curves JSON: quoted series name round-trips")
  endif()
endif()
run_case("curves --out writes a file" 0 curves_out_stdout
         curves train.series.jsonl --format=csv --out=curves.csv)
if(NOT EXISTS "${WORK_DIR}/curves.csv")
  math(EXPR failures "${failures} + 1")
  message(WARNING "curves did not write --out")
endif()
run_case("curves compare self" 0 compare_out
         curves --compare=train.series.jsonl,train2.series.jsonl)
expect_match("compare footer" "${compare_out}" "# curves compare")
run_case("store-meta curves (first run)" 0 store_curves_a
         curves --store=store_a --spec=sdsc-tiny)
run_case("store-meta curves (rerun)" 0 store_curves_b
         curves --store=store_a --spec=sdsc-tiny)
expect_same_stdout("store-meta curves rerun"
                   "${store_curves_a}" "${store_curves_b}")
expect_match("store-meta eval curve" "${store_curves_a}" "eval_curve")

# ---- 5. orchestrated sweep: sidecar series merge, zero result bytes ---
set(orch_args orchestrate --scenario=sdsc-easy --jobs=300 --seed=7
    --threads=2 --sweep=load=0.8,1.0 --format=both --workers=2 --quiet)
run_case("orchestrate with series" 0 orch_a
         ${orch_args} --out_dir=orch_a --series_out=fleet.series.jsonl)
run_case("orchestrate without series" 0 orch_b
         ${orch_args} --out_dir=orch_b)
string(REPLACE "orch_a/" "OUT/" orch_a_norm "${orch_a}")
string(REPLACE "orch_b/" "OUT/" orch_b_norm "${orch_b}")
expect_same_stdout("orchestrate: --series_out on/off"
                   "${orch_a_norm}" "${orch_b_norm}")
expect_same_tree("orchestrate: --series_out on/off"
                 "${WORK_DIR}/orch_a" "${WORK_DIR}/orch_b")
file(READ "${WORK_DIR}/fleet.series.jsonl" fleet_series)
expect_match("fleet series carries job durations" "${fleet_series}"
             "dist\\.job_seconds")
expect_match("fleet series tags the supervisor" "${fleet_series}"
             "\"source\": \"supervisor\"")
run_case("curves on the fleet series" 0 fleet_curves curves fleet.series.jsonl)
expect_match("fleet curves show tagged labels" "${fleet_curves}"
             "supervisor/dist\\.job_seconds")

# ---- 6. DQN/REINFORCE: thread-count parity, DQN trains from epoch 1 --
# expect_same_payload(<case> <store a> <store b>): the same .model/.spec
# file set in both stores, every file byte-identical.
function(expect_same_payload case a b)
  file(GLOB a_files RELATIVE "${a}" "${a}/*.model" "${a}/*.spec")
  file(GLOB b_files RELATIVE "${b}" "${b}/*.model" "${b}/*.spec")
  list(SORT a_files)
  list(SORT b_files)
  if("${a_files}" STREQUAL "" OR NOT "${a_files}" STREQUAL "${b_files}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: payload sets differ: [${a_files}] vs [${b_files}]")
    return()
  endif()
  foreach(f ${a_files})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${a}/${f}" "${b}/${f}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      math(EXPR failures "${failures} + 1")
      set(failures ${failures} PARENT_SCOPE)
      message(WARNING "${case}: ${f} differs")
      return()
    endif()
  endforeach()
  message(STATUS "${case}: .model/.spec byte-identical")
endfunction()

foreach(arm abl-rl-dqn abl-rl-reinforce)
  set(arm_budget --spec=${arm} --epochs=3 --trajectories=16 --traj_jobs=256
      --jobs=2000 --quiet)
  run_case("${arm} at 1 thread" 0 arm_t1 train ${arm_budget} --threads=1
           --store=store_${arm}_t1 --series_out=${arm}.series.jsonl)
  run_case("${arm} at 2 threads" 0 arm_t2 train ${arm_budget} --threads=2
           --store=store_${arm}_t2)
  expect_same_payload("${arm}: --threads=1 vs 2"
                      "${WORK_DIR}/store_${arm}_t1" "${WORK_DIR}/store_${arm}_t2")
endforeach()
file(STRINGS "${WORK_DIR}/abl-rl-dqn.series.jsonl" dqn_loss
     REGEX "\"train\\.loss\", \"step\": 1,")
if(NOT dqn_loss MATCHES "\"value\": " OR dqn_loss MATCHES "\"value\": 0,")
  math(EXPR failures "${failures} + 1")
  message(WARNING "abl-rl-dqn took no gradient step in epoch 1: '${dqn_loss}'")
else()
  message(STATUS "abl-rl-dqn trains from epoch 1: ${dqn_loss}")
endif()

# ---- 7. the strict reader names garbage ------------------------------
file(WRITE "${WORK_DIR}/garbage.jsonl" "this is not a series file\n")
run_case("curves rejects garbage" 1 garbage_out curves garbage.jsonl)

if(failures GREATER 0)
  message(FATAL_ERROR "series smoke: ${failures} case(s) failed")
endif()
message(STATUS "series smoke: all checks passed")
