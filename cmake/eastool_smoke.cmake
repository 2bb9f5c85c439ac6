# eastool smoke test, run by ctest (see the tests section of the root
# CMakeLists): one scenario end to end with both CSV outputs parsed
# non-empty, the request-file round trip (--print-request output must rerun
# to a byte-identical summary), per-run sweep outputs, batch mode, the order
# of stdout outputs, an unwritable or full output path, plus the CLI rejection
# paths (unknown, removed or repeated flags, bad flag values, bad topology,
# unknown policy, unknown scenario, too many runs or threads, a seed sweep
# that wraps, misread workload and fault values) exiting 1.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

# A rejection is exit status 1 with a diagnostic; any other failure (a
# crash, an abort's 134) is not one.
function(run_expect_failure description)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT result EQUAL 1)
    message(FATAL_ERROR "${description}: expected exit status 1, got ${result}: ${stderr}")
  endif()
  if(stderr STREQUAL "")
    message(FATAL_ERROR "${description}: rejected silently (no stderr diagnostic)")
  endif()
endfunction()

# A rejection whose diagnostic must name `flag`.
function(run_expect_flag_rejected flag)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT result EQUAL 1 OR NOT stderr MATCHES "${flag}")
    message(FATAL_ERROR "${flag}: want exit status 1 naming ${flag}, got ${result}: ${stderr}")
  endif()
endfunction()

set(trace_csv ${OUT_DIR}/eastool_smoke_trace.csv)
set(summary_csv ${OUT_DIR}/eastool_smoke_summary.csv)
file(REMOVE ${trace_csv} ${summary_csv})

# --- happy path: one scenario through the parallel runner ---------------------
execute_process(
  COMMAND ${EASTOOL} --scenario phase-shift --duration-s 20
          --trace-csv ${trace_csv} --summary-csv ${summary_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --scenario phase-shift failed (${result}):\n${stdout}${stderr}")
endif()

file(STRINGS ${trace_csv} trace_lines)
list(LENGTH trace_lines trace_length)
if(trace_length LESS 2)
  message(FATAL_ERROR "trace CSV has ${trace_length} line(s); want a header plus data rows")
endif()
list(GET trace_lines 0 trace_header)
if(NOT trace_header MATCHES "^tick,cpu0")
  message(FATAL_ERROR "trace CSV header looks wrong: ${trace_header}")
endif()
list(GET trace_lines 1 trace_row)
if(NOT trace_row MATCHES "^[0-9]+,[0-9.]+")
  message(FATAL_ERROR "trace CSV first data row looks wrong: ${trace_row}")
endif()

file(STRINGS ${summary_csv} summary_lines)
list(LENGTH summary_lines summary_length)
if(summary_length LESS 5)
  message(FATAL_ERROR "summary CSV has ${summary_length} line(s); want the full summary")
endif()
string(REPLACE ";" "\n" summary_text "${summary_lines}")
foreach(key migrations completions throughput avg_throttled_fraction)
  if(NOT summary_text MATCHES "${key},")
    message(FATAL_ERROR "summary CSV is missing ${key}:\n${summary_text}")
  endif()
endforeach()

# --- governed happy path: the DVFS layer end to end ---------------------------
# thermal-stepdown on the capping scenario must run, report the governor and
# export the frequency columns; --governor none must be accepted and export
# none of them (the pre-DVFS summary format).
set(governed_csv ${OUT_DIR}/eastool_smoke_governed.csv)
file(REMOVE ${governed_csv})
execute_process(
  COMMAND ${EASTOOL} --scenario dvfs-vs-throttle --duration-s 20
          --summary-csv ${governed_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --scenario dvfs-vs-throttle failed (${result}):\n${stdout}${stderr}")
endif()
if(NOT stdout MATCHES "governor:[ ]+thermal-stepdown")
  message(FATAL_ERROR "governed run does not report its governor:\n${stdout}")
endif()
file(READ ${governed_csv} governed_text)
foreach(key avg_frequency_cpu0 pstate_residency_cpu0_p0)
  if(NOT governed_text MATCHES "${key},")
    message(FATAL_ERROR "governed summary CSV is missing ${key}:\n${governed_text}")
  endif()
endforeach()

execute_process(
  COMMAND ${EASTOOL} --governor none --workload mixed:2 --duration-s 5
          --summary-csv ${governed_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --governor none failed (${result}):\n${stdout}${stderr}")
endif()
file(READ ${governed_csv} ungoverned_text)
if(ungoverned_text MATCHES "avg_frequency")
  message(FATAL_ERROR "--governor none must not emit DVFS columns:\n${ungoverned_text}")
endif()

# --- --list-scenarios shows the catalogue ------------------------------------
execute_process(COMMAND ${EASTOOL} --list-scenarios RESULT_VARIABLE result
                OUTPUT_VARIABLE listing ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --list-scenarios failed (${result})")
endif()
foreach(name paper-mixed paper-homogeneous paper-hot-task short-tasks phase-shift
        poisson-open-loop server-consolidation trace-replay dvfs-vs-throttle
        governor-comparison)
  if(NOT listing MATCHES "${name}")
    message(FATAL_ERROR "--list-scenarios is missing ${name}:\n${listing}")
  endif()
endforeach()

# --- --list-governors shows the registry --------------------------------------
execute_process(COMMAND ${EASTOOL} --list-governors RESULT_VARIABLE result
                OUTPUT_VARIABLE governors ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --list-governors failed (${result})")
endif()
foreach(name none thermal-stepdown ondemand)
  if(NOT governors MATCHES "${name}")
    message(FATAL_ERROR "--list-governors is missing ${name}:\n${governors}")
  endif()
endforeach()

# --- request-file round trip --------------------------------------------------
# The canonical request file for a flag invocation must rerun to the exact
# summary bytes the flags produce - a request file fully reproduces a run.
set(flags_csv ${OUT_DIR}/eastool_smoke_flags.csv)
set(request_csv ${OUT_DIR}/eastool_smoke_request.csv)
set(request_file ${OUT_DIR}/eastool_smoke.req)
file(REMOVE ${flags_csv} ${request_csv} ${request_file})
execute_process(
  COMMAND ${EASTOOL} --topology 2:4:1 --policy eas --workload mixed:2
          --duration-s 8 --seed 5 --summary-csv ${flags_csv}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "flag-driven run failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --topology 2:4:1 --policy eas --workload mixed:2
          --duration-s 8 --seed 5 --print-request
  RESULT_VARIABLE result OUTPUT_FILE ${request_file} ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--print-request failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --request ${request_file} --summary-csv ${request_csv}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--request rerun failed (${result}): ${stderr}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${flags_csv} ${request_csv}
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--request run is not byte-identical to the flag-driven run")
endif()

# --- every request flag reaches its key ---------------------------------------
# One --print-request sets every request flag (--scenario excludes
# --workload, so it runs on its own) and must print every key but `name`.
execute_process(
  COMMAND ${EASTOOL} --tag t1 --topology 2:4:2 --workload mixed:2 --policy eas
          --governor ondemand --duration-s 7.5 --max-power 55 --temp-limit 39 --throttle
          --faults off:1@500 --no-skip-ahead --intra-threads 2 --seed 9 --runs 2
          --print-request
  RESULT_VARIABLE result OUTPUT_VARIABLE every_flag ERROR_VARIABLE stderr)
set(every_key "tag = t1\ntopology = 2:4:2\nworkload = mixed:2\npolicy = eas\n")
string(APPEND every_key "governor = ondemand\nduration-s = 7.5\nmax-power = 55\n")
string(APPEND every_key "temp-limit = 39\nthrottle = true\nfaults = off:1@500\n")
string(APPEND every_key "skip-ahead = false\nintra-threads = 2\nseed = 9\nruns = 2\n")
if(NOT result EQUAL 0 OR NOT every_flag STREQUAL every_key)
  message(FATAL_ERROR "every-flag --print-request (${result}) printed:\n${every_flag}${stderr}")
endif()
execute_process(COMMAND ${EASTOOL} --scenario phase-shift --print-request
                RESULT_VARIABLE result OUTPUT_VARIABLE scenario_only ERROR_VARIABLE stderr)
if(NOT result EQUAL 0 OR NOT scenario_only STREQUAL "scenario = phase-shift\n")
  message(FATAL_ERROR "--scenario --print-request (${result}) printed:\n${scenario_only}${stderr}")
endif()

# --- per-run sweep outputs ----------------------------------------------------
# --runs N must keep every run: one summary row per run, per-run trace files
# (run 0 at FILE, run K at FILE.runK).
set(sweep_summary ${OUT_DIR}/eastool_smoke_sweep_summary.csv)
set(sweep_trace ${OUT_DIR}/eastool_smoke_sweep_trace.csv)
file(REMOVE ${sweep_summary} ${sweep_trace} ${sweep_trace}.run1)
execute_process(
  COMMAND ${EASTOOL} --scenario phase-shift --duration-s 10 --runs 2
          --summary-csv ${sweep_summary} --trace-csv ${sweep_trace}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--runs 2 sweep failed (${result}): ${stderr}")
endif()
file(STRINGS ${sweep_summary} sweep_lines)
list(LENGTH sweep_lines sweep_length)
if(NOT sweep_length EQUAL 3)
  message(FATAL_ERROR "sweep summary has ${sweep_length} line(s); want header + 2 run rows")
endif()
list(GET sweep_lines 0 sweep_header)
if(NOT sweep_header MATCHES "^run,name,seed,migrations,")
  message(FATAL_ERROR "sweep summary header looks wrong: ${sweep_header}")
endif()
list(GET sweep_lines 2 sweep_row)
if(NOT sweep_row MATCHES "^1,phase-shift/seed43,43,")
  message(FATAL_ERROR "sweep summary run-1 row looks wrong: ${sweep_row}")
endif()
foreach(trace_file ${sweep_trace} ${sweep_trace}.run1)
  if(NOT EXISTS ${trace_file})
    message(FATAL_ERROR "sweep trace file ${trace_file} was not written")
  endif()
endforeach()

# --- batch mode ---------------------------------------------------------------
set(batch_file ${OUT_DIR}/eastool_smoke_batch.req)
set(batch_jsonl ${OUT_DIR}/eastool_smoke_batch.jsonl)
file(WRITE ${batch_file}
     "# two requests, one per line\n"
     "scenario = paper-mixed; duration-s = 5\n"
     "scenario = paper-hot-task; duration-s = 5; seed = 9\n")
file(REMOVE ${batch_jsonl})
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_file} --jsonl ${batch_jsonl}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--batch failed (${result}): ${stderr}")
endif()
file(STRINGS ${batch_jsonl} batch_lines)
list(LENGTH batch_lines batch_length)
if(NOT batch_length EQUAL 2)
  message(FATAL_ERROR "batch JSONL has ${batch_length} line(s); want one per request")
endif()
list(GET batch_lines 1 batch_row)
if(NOT batch_row MATCHES "\"request\": \"name = paper-hot-task; scenario = paper-hot-task")
  message(FATAL_ERROR "batch JSONL row does not embed its request: ${batch_row}")
endif()

# --batch --print-request emits the canonical batch file (one request per
# line) and that file must replay through --batch.
set(batch_canon ${OUT_DIR}/eastool_smoke_batch_canon.req)
file(REMOVE ${batch_canon})
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_file} --print-request
  RESULT_VARIABLE result OUTPUT_FILE ${batch_canon} ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--batch --print-request failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_canon} --jsonl ${batch_jsonl}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "canonical batch file did not replay (${result}): ${stderr}")
endif()
file(STRINGS ${batch_jsonl} batch_lines)
list(LENGTH batch_lines batch_length)
if(NOT batch_length EQUAL 2)
  message(FATAL_ERROR "canonical batch replay wrote ${batch_length} record(s); want 2")
endif()

# --- stdout outputs, record by record -----------------------------------------
# `--jsonl -` and --plot share stdout: each record's JSONL line and then its
# plot, in record order, all before the run report.
execute_process(
  COMMAND ${EASTOOL} --topology 1:2:1 --workload hot:2 --duration-s 1 --runs 2
          --jsonl - --plot
  RESULT_VARIABLE result OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--jsonl - --plot failed (${result}): ${stderr}")
endif()
set(previous -1)
foreach(piece "{\"name\": \"cli/seed42\", " "\n-- cli/seed42 (seed 42) per-CPU thermal power --\n"
        "\n{\"name\": \"cli/seed43\", " "\n-- cli/seed43 (seed 43) per-CPU thermal power --\n"
        "\npolicy:            energy_aware\n")
  string(FIND "${stdout}" "${piece}" position)
  if(position LESS_EQUAL previous OR (previous EQUAL -1 AND NOT position EQUAL 0))
    message(FATAL_ERROR "stdout holds \"${piece}\" at ${position}, after ${previous}:\n${stdout}")
  endif()
  set(previous ${position})
endforeach()

# --- an unwritable output -----------------------------------------------------
# A path that cannot be opened fails the invocation (exit 1, naming the path)
# after the run report, and the other outputs are still written.
set(bad_jsonl ${OUT_DIR}/eastool_smoke_no_such_dir/out.jsonl)
set(beside_summary ${OUT_DIR}/eastool_smoke_beside_bad.csv)
file(REMOVE_RECURSE ${OUT_DIR}/eastool_smoke_no_such_dir)
file(REMOVE ${beside_summary})
execute_process(
  COMMAND ${EASTOOL} --topology 1:2:1 --workload hot:2 --duration-s 1
          --jsonl ${bad_jsonl} --summary-csv ${beside_summary}
  RESULT_VARIABLE result OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT result EQUAL 1 OR NOT stderr STREQUAL "failed to open ${bad_jsonl}\n")
  message(FATAL_ERROR "unwritable --jsonl: want exit 1 naming the path, got ${result}: ${stderr}")
endif()
if(NOT stdout MATCHES "policy:[ ]+energy_aware\nrun:[ ]+cli\n")
  message(FATAL_ERROR "unwritable --jsonl: no run report on stdout:\n${stdout}")
endif()
if(NOT EXISTS ${beside_summary})
  message(FATAL_ERROR "unwritable --jsonl: the summary CSV beside it was not written")
endif()
file(READ ${beside_summary} beside_text)
if(NOT beside_text MATCHES "^migrations,")
  message(FATAL_ERROR "unwritable --jsonl: summary CSV looks wrong:\n${beside_text}")
endif()

# A write that fails only when the file is flushed fails the invocation too.
if(EXISTS /dev/full)
  execute_process(
    COMMAND ${EASTOOL} --topology 1:2:1 --workload hot:2 --duration-s 1 --summary-csv /dev/full
    RESULT_VARIABLE result OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT result EQUAL 1 OR NOT stderr STREQUAL "failed to write summary CSV /dev/full\n")
    message(FATAL_ERROR
            "--summary-csv /dev/full: want exit 1 naming the path, got ${result}: ${stderr}")
  endif()
  if(stdout MATCHES "summary written")
    message(FATAL_ERROR "--summary-csv /dev/full: reported as written:\n${stdout}")
  endif()
endif()

# --- rejection paths ----------------------------------------------------------
run_expect_failure("unknown flag" ${EASTOOL} --polcy eas --duration-s 1)
# A repeated flag must be rejected by name, not resolved to its last value.
run_expect_flag_rejected(--seed ${EASTOOL} --seed 1 --seed 2 --print-request)
# Flag values get the request file's strictness: a bare --throttle means
# true, any other value must parse like `throttle = ...`; --no-skip-ahead
# takes none; worker counts are digits only.
run_expect_flag_rejected(--throttle ${EASTOOL} --throttle maybe --print-request)
run_expect_flag_rejected(--no-skip-ahead ${EASTOOL} --no-skip-ahead maybe --print-request)
run_expect_flag_rejected(--threads ${EASTOOL} --threads 4z --print-request)
run_expect_flag_rejected(--threads ${EASTOOL} --threads abc --print-request)
run_expect_flag_rejected(--queue-depth ${EASTOOL} --queue-depth -5 --print-request)
# A worker count past the cap (1024) is rejected before any thread starts,
# offline and under serve. Each case here fails, rather than starts threads,
# if the cap is lost: --print-request runs nothing, the serve case has no
# socket, and 2^64-1 under serve aborted in the pool's allocation.
run_expect_flag_rejected(--threads ${EASTOOL} --threads 1025 --print-request)
run_expect_flag_rejected(--threads ${EASTOOL} serve --threads 1025)
run_expect_flag_rejected(--threads ${EASTOOL} serve --socket ${OUT_DIR}/eastool_smoke.sock
                         --threads 18446744073709551615)
# A run count past the per-request cap is a diagnosed rejection, from a flag
# or from a request file, never an allocation abort.
run_expect_flag_rejected(runs ${EASTOOL} --runs 18446744073709551615 --print-request)
set(huge_runs_file ${OUT_DIR}/eastool_smoke_huge_runs.req)
file(WRITE ${huge_runs_file} "runs = 18446744073709551615\n")
run_expect_flag_rejected(runs ${EASTOOL} --request ${huge_runs_file} --print-request)
# A seed sweep that would wrap past 2^64-1 to seed 0 is rejected, not run as
# the first runs of the seed-0 sweep.
run_expect_flag_rejected("bad runs: want seed \\+ runs - 1 <= 18446744073709551615"
                         ${EASTOOL} --seed 18446744073709551615 --runs 2 --print-request)
run_expect_flag_rejected(--jsonl ${EASTOOL} --duration-s 1
                         --jsonl ${OUT_DIR}/eastool_smoke_a.jsonl
                         --jsonl ${OUT_DIR}/eastool_smoke_b.jsonl)
# --sink and --list-sinks are not flags: each output has a flag of its own.
run_expect_flag_rejected("unknown flag --sink\n" ${EASTOOL} --duration-s 1
                         --sink jsonl:${OUT_DIR}/eastool_smoke_sink.jsonl)
run_expect_flag_rejected("unknown flag --list-sinks\n" ${EASTOOL} --list-sinks)
run_expect_failure("request flag with --batch"
                   ${EASTOOL} --batch ${batch_file} --seed 3)
run_expect_failure("--request with --batch"
                   ${EASTOOL} --batch ${batch_file} --request ${request_file})
run_expect_failure("missing request file" ${EASTOOL} --request ${OUT_DIR}/no_such.req)
run_expect_failure("bad seed value" ${EASTOOL} --seed 4z2 --duration-s 1)
run_expect_failure("bad topology" ${EASTOOL} --topology junk:0:x --duration-s 1)
run_expect_failure("zero-CPU topology" ${EASTOOL} --topology 1:0:1 --duration-s 1)
run_expect_failure("unknown policy" ${EASTOOL} --policy no_such_policy --duration-s 1)
run_expect_failure("unknown scenario" ${EASTOOL} --scenario no-such-scenario --duration-s 1)
run_expect_failure("bad workload" ${EASTOOL} --workload bogus:3 --duration-s 1)
# Every text input reads its numbers by one rule set (src/base/text.h): a
# count with trailing junk or a signed fault cpu is rejected, not misread.
run_expect_flag_rejected(workload ${EASTOOL} --workload mixed:3x --print-request)
run_expect_flag_rejected(faults ${EASTOOL} --faults off:+1@5 --print-request)
# intra-threads takes --threads' cap; --print-request starts no thread, so
# the case fails rather than starts 1025 if the cap is lost.
run_expect_flag_rejected(intra-threads ${EASTOOL} --intra-threads 1025 --print-request)
run_expect_failure("unknown governor" ${EASTOOL} --governor no-such-governor --duration-s 1)
run_expect_failure("unknown governor over scenario"
                   ${EASTOOL} --scenario paper-mixed --governor bogus --duration-s 1)

message(STATUS "eastool smoke test passed")
