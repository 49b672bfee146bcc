# CLI behavior tests for the rlbf_run driver: malformed invocations must
# produce a NONZERO exit code and a NAMED error on stderr — never a
# crash, never a silent success. Driven by ctest (label: smoke):
#
#   cmake -DRLBF_RUN=<binary> -DWORK_DIR=<scratch> -P rlbf_run_cli_test.cmake

foreach(var RLBF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "rlbf_run_cli_test.cmake: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures 0)

# expect_failure(<case name> <stderr must match this regex> <args...>)
#
# Exit codes 1 (runtime error) and 2 (usage error) are the contract;
# anything else — in particular the 128+signal codes of a crash — fails.
function(expect_failure case pattern)
  execute_process(
    COMMAND "${RLBF_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  set(ok 1)
  if(NOT rc EQUAL 1 AND NOT rc EQUAL 2)
    set(ok 0)
    message(WARNING "${case}: expected exit 1 or 2, got '${rc}' "
                    "(a signal name or 128+ code means a crash)")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    set(ok 0)
    message(WARNING "${case}: stderr does not name the error "
                    "(wanted regex '${pattern}', got: ${err})")
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${case}: ok (exit ${rc})")
  endif()
endfunction()

# expect_success(<case name> <args...>)
function(expect_success case)
  execute_process(
    COMMAND "${RLBF_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    message(WARNING "${case}: expected exit 0, got '${rc}'\n${err}")
  else()
    message(STATUS "${case}: ok")
  endif()
endfunction()

# Unknown subcommand.
expect_failure("unknown command" "unknown command 'frobnicate'" frobnicate)
# Unknown scenario name, as a run error naming the catalog.
expect_failure("unknown scenario" "unknown scenario 'no-such-scenario'"
               run --scenario=no-such-scenario)
# Unknown scenario inside a comma list.
expect_failure("unknown scenario in list" "unknown scenario 'nope'"
               run --scenario=sdsc-easy,nope)
# Empty name inside a comma list.
expect_failure("empty scenario name" "empty name" run --scenario=sdsc-easy,)
# Unknown flag (ArgParser usage error).
expect_failure("unknown flag" "--bogus" run --bogus=1)
# Missing required --scenario.
expect_failure("missing scenario" "--scenario" run)
# Bad --format value.
expect_failure("bad format" "--format must be" run --scenario=sdsc-easy --format=yaml)
# Unknown training spec.
expect_failure("unknown training spec" "unknown training spec 'no-such-spec'"
               train --spec=no-such-spec)
# Unresolvable agent reference (names the store it searched).
expect_failure("unknown agent" "cannot resolve agent reference 'no-such-agent'"
               run --scenario=sdsc-easy --jobs=200 --agent=no-such-agent
               --store=cli_models)
# Unknown sweep parameter.
expect_failure("unknown sweep param" "unknown parameter 'warp'"
               run --scenario=sdsc-easy --sweep=warp=9)
# Malformed sweep axis (missing '=').
expect_failure("malformed sweep axis" "missing '='"
               run --scenario=sdsc-easy --sweep=load)
# Bad numeric flag value.
expect_failure("bad numeric flag" "--seed" run --scenario=sdsc-easy --seed=twelve)

# Malformed --shard specs: junk, missing '/', index out of range, zero
# count — each fails nonzero with a named shard error before any work runs.
expect_failure("shard junk" "malformed shard spec 'x/y'"
               run --scenario=sdsc-easy --shard=x/y)
expect_failure("shard missing slash" "malformed shard spec '2'"
               run --scenario=sdsc-easy --shard=2)
expect_failure("shard index out of range" "shard index 3 out of range"
               run --scenario=sdsc-easy --shard=3/2)
expect_failure("shard zero count" "shard count must be >= 1"
               run --scenario=sdsc-easy --shard=0/0)
expect_failure("shard negative" "malformed shard spec '-1/3'"
               run --scenario=sdsc-easy --shard=-1/3)
# merge without usable inputs: missing flags, then an empty directory.
expect_failure("merge missing flags" "--inputs" merge)
file(MAKE_DIRECTORY "${WORK_DIR}/empty_shards")
expect_failure("merge empty dir" "no shard summaries found"
               merge --inputs=empty_shards --out_dir=merged_nothing)

# --shard=0/1 is a valid single-shard run whose tagged output merges into
# a file identical to the unsharded run's; shard_count > instance count
# yields an empty shard that merge still accepts.
expect_success("single-shard run" run --scenario=sdsc-easy --jobs=200 --seed=5
               --shard=0/1 --out_dir=one_shard)
expect_success("merge single shard"
               merge --inputs=one_shard --out_dir=one_merged)
expect_success("unsharded reference" run --scenario=sdsc-easy --jobs=200 --seed=5
               --out_dir=one_reference)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/one_merged/summary.csv"
          "${WORK_DIR}/one_reference/summary.csv"
  RESULT_VARIABLE one_shard_same)
if(NOT one_shard_same EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged 0/1 shard differs from the unsharded summary")
else()
  message(STATUS "merged 0/1 shard == unsharded summary: ok")
endif()
# 2 instances over 3 shards: shard 2 is empty; the merged union of all
# three must still byte-match the unsharded sweep.
expect_success("unsharded small sweep" run --scenario=sdsc-easy --jobs=200
               --seed=5 --sweep=policy=FCFS,SJF --out_dir=small_reference)
foreach(i RANGE 2)
  expect_success("shard ${i}/3 of small sweep" run --scenario=sdsc-easy
                 --jobs=200 --seed=5 --sweep=policy=FCFS,SJF --shard=${i}/3
                 --out_dir=small_shard${i})
endforeach()
expect_success("merge with empty shard"
               merge --inputs=small_shard0,small_shard1,small_shard2
               --out_dir=small_merged)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/small_merged/summary.csv"
          "${WORK_DIR}/small_reference/summary.csv"
  RESULT_VARIABLE small_same)
if(NOT small_same EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "merged 3-shard sweep (one empty shard) differs from the "
                  "unsharded summary")
else()
  message(STATUS "merged 3-shard sweep (one empty shard) == unsharded: ok")
endif()
# An incomplete shard set must fail with the missing shard named.
expect_failure("merge incomplete shard set" "missing shard 2/3"
               merge --inputs=small_shard0,small_shard1 --out_dir=small_bad)

# Orchestration failure paths: malformed hosts/templates and a worker
# that always fails must exit nonzero with named errors — the failing
# worker's stderr tail must appear in the orchestrator's failure log.
expect_failure("orchestrate missing scenario" "--scenario"
               orchestrate --out_dir=o_none)
expect_failure("orchestrate template without hosts"
               "--command_template needs --hosts"
               orchestrate --scenario=sdsc-easy --out_dir=o_none
               --command_template=any)
expect_failure("orchestrate hosts without template"
               "--hosts needs --command_template"
               orchestrate --scenario=sdsc-easy --out_dir=o_none --hosts=a,b)
expect_failure("orchestrate empty host element" "empty host name"
               orchestrate --scenario=sdsc-easy --jobs=200 --out_dir=o_none
               --hosts=a,,b "--command_template=ssh {host} {command}")
expect_failure("orchestrate template missing {command}"
               "no .command. \\(or .qcommand.\\) placeholder"
               orchestrate --scenario=sdsc-easy --jobs=200 --out_dir=o_none
               --hosts=a "--command_template=ssh {host}")
expect_failure("orchestrate unknown placeholder"
               "unknown placeholder '.hots.'"
               orchestrate --scenario=sdsc-easy --jobs=200 --out_dir=o_none
               --hosts=a "--command_template=ssh {hots} {command}")
expect_failure("orchestrate malformed inject_fail"
               "malformed --inject_fail entry"
               orchestrate --scenario=sdsc-easy --jobs=200 --out_dir=o_none
               --workers=2 --inject_fail=x:y)
expect_failure("orchestrate zero workers" "--workers must be >= 1"
               orchestrate --scenario=sdsc-easy --out_dir=o_none --workers=0)
file(WRITE "${WORK_DIR}/fake_worker.sh"
     "#!/bin/sh\necho 'fake worker: cannot reach cluster' >&2\nexit 3\n")
# chmod via execute_process: file(CHMOD) needs CMake >= 3.19.
execute_process(COMMAND chmod +x "${WORK_DIR}/fake_worker.sh")
expect_failure("orchestrate failing fake worker"
               "fake worker: cannot reach cluster"
               orchestrate --scenario=sdsc-easy --jobs=200 --workers=2
               --retries=1 --worker_binary=${WORK_DIR}/fake_worker.sh
               --out_dir=o_fail --quiet)
expect_failure("orchestrate failing worker names exit code" "exit 3"
               orchestrate --scenario=sdsc-easy --jobs=200 --workers=2
               --retries=0 --worker_binary=${WORK_DIR}/fake_worker.sh
               --out_dir=o_fail --quiet)

# train sharding and fan-out argument validation.
expect_failure("train workers+shard exclusive" "exclusive"
               train --spec=sdsc-tiny --workers=2 --shard=0/2)
expect_failure("train workers+export_bundle exclusive" "exclusive"
               train --spec=sdsc-tiny --workers=2 --export_bundle=eb)
# A warm-start source missing from the fanned-out grid cannot resolve in
# a private worker store — named up front, before any worker launches.
expect_failure("train workers orphan warm start" "warm-starts from"
               train --spec=abl-transfer-finetune --workers=2)
expect_failure("train malformed shard" "malformed shard spec 'x'"
               train --spec=sdsc-tiny --shard=x)
expect_failure("train shard out of range" "shard index 5 out of range"
               train --spec=sdsc-tiny --shard=5/2)

# profile: every bad input is a named error with the documented exit
# code (1 = error, 2 = usage).
expect_failure("profile without a trace" "pass a trace file" profile)
expect_failure("profile missing trace" "cannot open sidecar file"
               profile no_such.trace.json)
file(WRITE "${WORK_DIR}/broken.trace.json" "{\"traceEvents\": [")
expect_failure("profile malformed trace" "broken.trace.json"
               profile broken.trace.json)

# Multi-bundle import: a directory with no bundle anywhere is a named
# error, not a silent zero-import.
file(MAKE_DIRECTORY "${WORK_DIR}/not_a_bundle")
expect_failure("import non-bundle dir" "holds no bundle"
               models --store=mb_store --import_bundle=not_a_bundle)
expect_failure("import missing dir" "is not a directory"
               models --store=mb_store --import_bundle=no_such_dir)

# Consolidated help: overview, per-command usage, --help alias, and an
# unknown command both in help and at the top level.
expect_success("help overview" help)
# `help <command>` for every command the overview lists: each one builds
# that command's parser, and ArgParser throws on a flag registered twice.
execute_process(COMMAND "${RLBF_RUN}" help OUTPUT_VARIABLE overview)
string(REGEX MATCHALL "\n  [a-z-]+ " listed "${overview}")
list(LENGTH listed listed_n)
if(listed_n LESS 9)
  math(EXPR failures "${failures} + 1")
  message(WARNING "help overview lists ${listed_n} command(s):\n${overview}")
endif()
foreach(entry ${listed})
  string(STRIP "${entry}" command)
  expect_success("help ${command}" help ${command})
endforeach()
expect_success("top-level --help" --help)
expect_failure("help unknown command" "unknown command 'frob'" help frob)
expect_failure("unknown command lists help" "help"
               definitely-not-a-command)
# The retired `bench` command (the repository benchmark is perfbench/)
# is gone from dispatch and from the help overview alike: both read the
# one command table.
execute_process(COMMAND "${RLBF_RUN}" bench
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "unknown command 'bench'")
  math(EXPR failures "${failures} + 1")
  message(WARNING "retired bench: expected exit 2 and \"unknown command "
                  "'bench'\", got '${rc}': ${err}")
else()
  message(STATUS "retired bench: ok (exit 2)")
endif()
if("${overview}" MATCHES "\n  bench ")
  math(EXPR failures "${failures} + 1")
  message(WARNING "help overview still lists bench:\n${overview}")
endif()

# Sanity: the catalog listings still succeed from this harness.
expect_success("run --list" run --list)
expect_success("train --list" train --list)
expect_success("legacy bare --list" --list)

# Observability is deterministic-output-safe: the SAME run with metrics,
# tracing, and elapsed-time logging enabled must leave stdout and every
# result file byte-identical — instrumentation writes only to its own
# sinks (the named files, and status lines on stderr).
# Identical command lines (same --out_dir) from two working directories,
# so even the "# results written to ..." stdout line must match.
file(MAKE_DIRECTORY "${WORK_DIR}/obs_off" "${WORK_DIR}/obs_on")
execute_process(
  COMMAND "${RLBF_RUN}" run --scenario=sdsc-easy --jobs=200 --seed=5
          --out_dir=results
  WORKING_DIRECTORY "${WORK_DIR}/obs_off"
  OUTPUT_FILE "${WORK_DIR}/obs_off.stdout"
  ERROR_VARIABLE obs_off_err
  RESULT_VARIABLE obs_off_rc)
execute_process(
  COMMAND "${RLBF_RUN}" run --scenario=sdsc-easy --jobs=200 --seed=5
          --out_dir=results --metrics_out=obs_metrics.json
          --trace_out=obs_trace.json --log_elapsed
  WORKING_DIRECTORY "${WORK_DIR}/obs_on"
  OUTPUT_FILE "${WORK_DIR}/obs_on.stdout"
  ERROR_VARIABLE obs_on_err
  RESULT_VARIABLE obs_on_rc)
if(NOT obs_off_rc EQUAL 0 OR NOT obs_on_rc EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "obs byte-identity: runs failed (off=${obs_off_rc} "
                  "on=${obs_on_rc})\n${obs_off_err}\n${obs_on_err}")
else()
  set(obs_ok 1)
  foreach(pair "obs_off.stdout|obs_on.stdout"
               "obs_off/results/summary.csv|obs_on/results/summary.csv")
    string(REPLACE "|" ";" pair "${pair}")
    list(GET pair 0 lhs)
    list(GET pair 1 rhs)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORK_DIR}/${lhs}" "${WORK_DIR}/${rhs}"
      RESULT_VARIABLE obs_same)
    if(NOT obs_same EQUAL 0)
      set(obs_ok 0)
      message(WARNING "obs byte-identity: ${lhs} differs from ${rhs} — "
                      "instrumentation leaked into a result stream")
    endif()
  endforeach()
  # The sinks themselves must exist and carry the instrumented layers.
  file(READ "${WORK_DIR}/obs_on/obs_metrics.json" obs_metrics)
  if(NOT obs_metrics MATCHES "sim\\.events_processed")
    set(obs_ok 0)
    message(WARNING "obs: metrics dump lacks sim.events_processed")
  endif()
  file(READ "${WORK_DIR}/obs_on/obs_trace.json" obs_trace)
  if(NOT obs_trace MATCHES "traceEvents" OR NOT obs_trace MATCHES "\"cat\": \"sim\"")
    set(obs_ok 0)
    message(WARNING "obs: trace dump lacks traceEvents / sim spans")
  endif()
  # --log_elapsed routes [+N.NNNs] prefixes to stderr only.
  if(NOT obs_on_err MATCHES "\\[\\+[0-9]+\\.[0-9]+s\\]")
    set(obs_ok 0)
    message(WARNING "obs: --log_elapsed produced no [+N.NNNs] stderr prefix")
  endif()
  if(obs_ok)
    message(STATUS "obs byte-identity + sink contents: ok")
  else()
    math(EXPR failures "${failures} + 1")
  endif()
endif()
# A metrics sink that cannot be written is a loud exit-1 failure, after
# the run's real work.
expect_failure("unwritable metrics_out" "cannot write --metrics_out"
               run --scenario=sdsc-easy --jobs=200
               --metrics_out=no_such_dir/metrics.json)

if(failures GREATER 0)
  message(FATAL_ERROR "rlbf_run CLI: ${failures} case(s) failed")
endif()
