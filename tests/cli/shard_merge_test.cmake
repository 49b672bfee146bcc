# The distributed-execution acceptance proof, driven end to end through
# the rlbf_run binary (label: smoke):
#
#   1. A parameter sweep run as --shard=0/3, 1/3, 2/3 and merged must be
#      byte-identical — summary CSV, summary JSON, and every per-job
#      CSV — to the unsharded run at the same seed.
#   2. A --format=csv --per_job=0 2-shard sweep merges to the unsharded
#      run's files, and shards run with different --format values are
#      refused as an inconsistent shard set.
#   3. An agent trained on "machine A" and shipped through
#      models --export_bundle / --import_bundle must resolve in the
#      fresh store and reproduce its eval metrics exactly, including
#      after an LRU eviction pass (--max_store_bytes) that must respect
#      referenced entries.
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P shard_merge_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_merge_test.cmake: -D${var}=... is required")
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

# compare_trees(<case> <dir A> <dir B>): every file in A must exist in B
# with identical bytes, and vice versa.
function(compare_trees case a b)
  file(GLOB_RECURSE a_files RELATIVE "${a}" "${a}/*")
  file(GLOB_RECURSE b_files RELATIVE "${b}" "${b}/*")
  set(ok 1)
  if(NOT "${a_files}" STREQUAL "${b_files}")
    set(ok 0)
    message(WARNING "${case}: file sets differ: [${a_files}] vs [${b_files}]")
  else()
    foreach(f ${a_files})
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${a}/${f}" "${b}/${f}"
        RESULT_VARIABLE same)
      if(NOT same EQUAL 0)
        set(ok 0)
        message(WARNING "${case}: ${f} differs between ${a} and ${b}")
      endif()
    endforeach()
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${case}: byte-identical")
  endif()
endfunction()

# ---- 1. shard-union byte identity -----------------------------------
# (the \; keeps the two-axis grid one argument in CMake's list model)
set(sweep_grid "load=0.8,1.0\;policy=FCFS,SJF")
run_or_fail("unsharded sweep" run --scenario=sdsc-easy --jobs=300 --seed=7
            --threads=2 "--sweep=${sweep_grid}" --format=both
            --out_dir=unsharded)
foreach(i RANGE 2)
  run_or_fail("shard ${i}/3" sweep --scenario=sdsc-easy --jobs=300 --seed=7
              --threads=2 "--sweep=${sweep_grid}" --format=both --shard=${i}/3
              --out_dir=shard${i})
endforeach()
run_or_fail("merge shards" merge --inputs=shard0,shard1,shard2
            --out_dir=merged)
compare_trees("merged 3-shard sweep vs unsharded"
              "${WORK_DIR}/unsharded" "${WORK_DIR}/merged")

# ---- 2. summary format and per-job options survive the merge --------
run_or_fail("unsharded csv sweep" run --scenario=sdsc-easy --jobs=300 --seed=7
            "--sweep=${sweep_grid}" --format=csv --per_job=0
            --out_dir=unsharded_csv)
foreach(i RANGE 1)
  run_or_fail("csv shard ${i}/2" sweep --scenario=sdsc-easy --jobs=300
              --seed=7 "--sweep=${sweep_grid}" --format=csv --per_job=0
              --shard=${i}/2 --out_dir=csv_shard${i})
endforeach()
run_or_fail("merge csv shards" merge --inputs=csv_shard0,csv_shard1
            --out_dir=merged_csv)
compare_trees("merged 2-shard csv sweep vs unsharded"
              "${WORK_DIR}/unsharded_csv" "${WORK_DIR}/merged_csv")

run_or_fail("json shard 1/2" sweep --scenario=sdsc-easy --jobs=300 --seed=7
            "--sweep=${sweep_grid}" --format=json --per_job=0 --shard=1/2
            --out_dir=json_shard1)
execute_process(
  COMMAND "${RLBF_RUN}" merge --inputs=csv_shard0,json_shard1
          --out_dir=merged_mixed
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "inconsistent shard set")
  math(EXPR failures "${failures} + 1")
  message(WARNING "merge of mixed --format shards: expected a non-zero exit "
                  "naming 'inconsistent shard set', got '${rc}': ${err}")
else()
  message(STATUS "merge of mixed --format shards: refused")
endif()

# ---- 3. store bundle round trip + LRU eviction ----------------------
# Train on "machine A", evaluate there, pack the store into a bundle.
run_or_fail("train on A" train --spec=sdsc-tiny --store=store_a --quiet)
run_or_fail("evaluate on A" run --scenario=sdsc-tiny-rlbf --store=store_a
            --seed=1 --out_dir=run_a)
run_or_fail("export bundle" models --store=store_a --export_bundle=bundle)
# Import into an empty "machine B" store; the import re-verifies every
# fingerprint, and the entry must come back out as a resolvable agent.
run_or_fail("import bundle on B" models --store=store_b
            --import_bundle=bundle)
if(NOT last_stdout MATCHES "# imported 1 entry")
  math(EXPR failures "${failures} + 1")
  message(WARNING "import did not report 1 imported entry:\n${last_stdout}")
endif()
# An aggressive LRU pass must spare the referenced sdsc-tiny entry (it
# backs the sdsc-tiny-rlbf scenario) even though the store exceeds 1 byte.
run_or_fail("LRU pass on B" models --store=store_b --max_store_bytes=1)
if(NOT last_stdout MATCHES "0 evicted")
  math(EXPR failures "${failures} + 1")
  message(WARNING "LRU pass evicted a referenced entry:\n${last_stdout}")
endif()
run_or_fail("evaluate on B" run --scenario=sdsc-tiny-rlbf --store=store_b
            --seed=1 --out_dir=run_b)
compare_trees("trained-on-A vs bundle-imported-on-B eval"
              "${WORK_DIR}/run_a" "${WORK_DIR}/run_b")

if(failures GREATER 0)
  message(FATAL_ERROR "shard/merge smoke: ${failures} case(s) failed")
endif()
