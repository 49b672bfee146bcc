# The actor/learner acceptance proof, end to end through the rlbf_run
# binary (label: smoke):
#
#   1. `train --spec=sdsc-tiny` run sequentially (--rollout_workers=0),
#      with one worker process (--rollout_workers=1), and with three
#      worker processes plus one injected, retried worker failure
#      (--rollout_workers=3 --inject_fail=1:1) produces byte-identical
#      stores: same keys (= content-address fingerprints), same .model
#      bytes, same .spec bytes.
#      The DQN and REINFORCE arms (abl-rl-dqn, abl-rl-reinforce) train
#      byte-identically at --rollout_workers=0 and =2 too: workers
#      reproduce each algorithm's per-epoch selection mode and DQN's
#      decayed exploration rate.
#   2. The injected failure and its retry show up in the supervisor log,
#      and the rollout scratch directory is cleaned up on success
#      (kept under --keep_work, holding the worker obs sidecars). With
#      --series_out the merged series carry the per-job dist.* series.
#   3. Malformed transports are usage errors (exit 2) before anything
#      trains: --rollout_workers with --workers, --command_template
#      without --hosts, --rollout_workers over a multi-spec grid.
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P rollout_workers_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "rollout_workers_test.cmake: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures 0)

function(run_or_fail case)
  execute_process(
    COMMAND "${RLBF_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: expected exit 0, got '${rc}'\n${out}\n${err}")
  else()
    message(STATUS "${case}: ok")
  endif()
  set(last_stdout "${out}" PARENT_SCOPE)
endfunction()

# A malformed invocation must be a usage error (exit 2) naming the
# problem — never a crash, never a partial run.
function(expect_usage_error case pattern)
  execute_process(
    COMMAND "${RLBF_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: expected exit 2, got '${rc}'\n${out}\n${err}")
  elseif(NOT "${out}${err}" MATCHES "${pattern}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: exit 2 but no '${pattern}' in:\n${out}\n${err}")
  else()
    message(STATUS "${case}: rejected as expected")
  endif()
endfunction()

# store_signature(<out var> <store dir>): the sorted key column of
# index.tsv — keys ARE the content-address fingerprints. (The last_used
# column is volatile, so the file itself is never byte-compared.)
function(store_signature out_var store)
  file(STRINGS "${store}/index.tsv" lines)
  set(keys "")
  foreach(line ${lines})
    if(line MATCHES "^rlbf-model-store")
      continue()
    endif()
    string(REPLACE "\t" ";" fields "${line}")
    list(GET fields 0 key)
    list(APPEND keys "${key}")
  endforeach()
  list(SORT keys)
  set(${out_var} "${keys}" PARENT_SCOPE)
endfunction()

# compare_store_payload(<case> <store A> <store B>): every .model/.spec
# file in A must exist in B with identical bytes — the model parameters
# crossed a process (or retry) boundary without a bit changing.
function(compare_store_payload case a b)
  file(GLOB payload RELATIVE "${a}" "${a}/*.model" "${a}/*.spec")
  set(ok 1)
  if("${payload}" STREQUAL "")
    set(ok 0)
    message(WARNING "${case}: no payload files in ${a} — nothing was proven")
  endif()
  foreach(f ${payload})
    if(NOT EXISTS "${b}/${f}")
      set(ok 0)
      message(WARNING "${case}: ${f} missing from ${b}")
      continue()
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${a}/${f}" "${b}/${f}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      set(ok 0)
      message(WARNING "${case}: ${f} differs between ${a} and ${b}")
    endif()
  endforeach()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${case}: byte-identical")
  endif()
endfunction()

# ---- 1. sequential ≡ 1 worker ≡ 3 workers (with a retried failure) ---
run_or_fail("sequential train" train --spec=sdsc-tiny --store=store_seq
            --quiet)
# One worker, kept scratch: proves the obs sidecar plumbing (the worker
# writes its own metrics file, the supervisor merges a fleet view, and
# the supervisor's series carry the per-job dist.* duration series).
run_or_fail("1 rollout worker" train --spec=sdsc-tiny --store=store_w1
            --rollout_workers=1 --quiet --keep_work
            --metrics_out=fleet_metrics.json --series_out=fleet_series.jsonl)
# Worker job 0's first attempt (epoch 1) is forced to fail with a real
# nonzero exit and must be retried to success on attempt 2.
run_or_fail("3 rollout workers, 1 injected failure" train --spec=sdsc-tiny
            --store=store_w3 --rollout_workers=3 --retries=1 --inject_fail=0:1)
if(NOT last_stdout MATCHES "injected failure")
  math(EXPR failures "${failures} + 1")
  message(WARNING "supervisor log does not show the injected failure:\n${last_stdout}")
endif()
if(NOT last_stdout MATCHES "retrying")
  math(EXPR failures "${failures} + 1")
  message(WARNING "supervisor log does not show the retry:\n${last_stdout}")
endif()

store_signature(seq_sig "${WORK_DIR}/store_seq")
store_signature(w1_sig "${WORK_DIR}/store_w1")
store_signature(w3_sig "${WORK_DIR}/store_w3")
list(LENGTH seq_sig seq_n)
if(seq_n EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "sequential store is empty — nothing was proven")
endif()
foreach(arm w1 w3)
  if("${seq_sig}" STREQUAL "${${arm}_sig}")
    message(STATUS "${arm} keys+fingerprints == sequential: ok")
  else()
    math(EXPR failures "${failures} + 1")
    message(WARNING "store keys differ:\nseq: ${seq_sig}\n${arm}: ${${arm}_sig}")
  endif()
  compare_store_payload("${arm} store payload vs sequential"
                        "${WORK_DIR}/store_seq" "${WORK_DIR}/store_${arm}")
endforeach()

# The non-PPO arms: at this budget DQN's replay fills past min_replay in
# epoch 1, so every epoch takes real gradient steps through the workers.
foreach(arm abl-rl-dqn abl-rl-reinforce)
  set(budget --spec=${arm} --epochs=3 --trajectories=16 --traj_jobs=256
      --jobs=2000 --quiet)
  run_or_fail("${arm} sequential" train ${budget} --store=store_${arm}_w0
              --series_out=${arm}.series.jsonl)
  run_or_fail("${arm} 2 rollout workers" train ${budget}
              --store=store_${arm}_w2 --rollout_workers=2)
  store_signature(w0_sig "${WORK_DIR}/store_${arm}_w0")
  store_signature(w2_sig "${WORK_DIR}/store_${arm}_w2")
  if(NOT "${w0_sig}" STREQUAL "" AND "${w0_sig}" STREQUAL "${w2_sig}")
    message(STATUS "${arm} keys+fingerprints at 0 == 2 workers: ok")
  else()
    math(EXPR failures "${failures} + 1")
    message(WARNING "${arm} store keys differ:\nw0: ${w0_sig}\nw2: ${w2_sig}")
  endif()
  compare_store_payload("${arm} store payload, 2 workers vs sequential"
                        "${WORK_DIR}/store_${arm}_w0" "${WORK_DIR}/store_${arm}_w2")
endforeach()
file(STRINGS "${WORK_DIR}/abl-rl-dqn.series.jsonl" dqn_loss
     REGEX "\"train\\.loss\", \"step\": 1,")
if(NOT dqn_loss MATCHES "\"value\": " OR dqn_loss MATCHES "\"value\": 0,")
  math(EXPR failures "${failures} + 1")
  message(WARNING "abl-rl-dqn took no gradient step in epoch 1: '${dqn_loss}'")
else()
  message(STATUS "abl-rl-dqn trains from epoch 1: ${dqn_loss}")
endif()

# ---- 2. scratch lifecycle and worker observability sidecars ----------
if(EXISTS "${WORK_DIR}/store_w3.rollouts")
  math(EXPR failures "${failures} + 1")
  message(WARNING "rollout scratch was not cleaned up after success")
endif()
if(NOT EXISTS "${WORK_DIR}/store_w1.rollouts/worker0.metrics.json")
  math(EXPR failures "${failures} + 1")
  message(WARNING "--keep_work did not retain the worker obs sidecar")
endif()
if(NOT EXISTS "${WORK_DIR}/fleet_metrics.json")
  math(EXPR failures "${failures} + 1")
  message(WARNING "supervisor did not write the merged fleet metrics")
endif()
if(EXISTS "${WORK_DIR}/fleet_series.jsonl")
  file(STRINGS "${WORK_DIR}/fleet_series.jsonl" job_seconds
       REGEX "\"dist\\.job_seconds\"")
endif()
if("${job_seconds}" STREQUAL "")
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged fleet series has no dist.job_seconds series")
else()
  message(STATUS "merged fleet series carries dist.job_seconds: ok")
endif()

# ---- 3. malformed transports fail fast -------------------------------
expect_usage_error("rollout_workers excludes process fan-out"
                   "--rollout_workers"
                   train --spec=sdsc-tiny --store=store_x
                   --rollout_workers=2 --workers=3)
expect_usage_error("command template needs hosts" "--hosts"
                   train --spec=sdsc-tiny --store=store_x --rollout_workers=2
                   "--command_template=ssh {host} {qcommand}")
expect_usage_error("one spec per rollout run" "exactly one"
                   train --ablations --store=store_x --rollout_workers=2)

if(failures GREATER 0)
  message(FATAL_ERROR "rollout workers smoke: ${failures} case(s) failed")
endif()
