# Chaos soak, run by ctest under the "chaos-soak" label (see the tests
# section of the root CMakeLists): the chaos-soak scenario - the SMT paper
# box under a dense seeded fault plan (hotplug churn, thermal spikes,
# P-state clamps) with the InvariantChecker armed on every tick - through
# eastool, checking the fault layer's determinism contracts byte-for-byte:
#
#   * request replay: the run's own --print-request file, fed back through
#     --request, reproduces the summary byte-for-byte;
#   * runner-thread independence: --threads 1, 2 and 8 must produce
#     byte-identical summaries (faults are injected engine-side, never from
#     runner workers);
#   * intra-worker independence: the default worker count and
#     --intra-threads 1 and 3 agree bit-for-bit (the FaultPhase runs
#     engine-sequentially before any package fan-out);
#   * skip-ahead neutrality: --no-skip-ahead must not change the bytes (a
#     pending fault bounds the quiescent span, so skipping never jumps one);
#   * fault-free cancellation: --faults none on the same scenario still runs
#     and emits no fault columns.
#
# A run that trips the InvariantChecker exits non-zero, so every invocation
# below is also a liveness check on the conservation/ledger invariants.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

set(scenario chaos-soak)

set(base_csv ${OUT_DIR}/chaos_soak_base.csv)
set(replay_csv ${OUT_DIR}/chaos_soak_replay.csv)
set(threads2_csv ${OUT_DIR}/chaos_soak_threads2.csv)
set(threads8_csv ${OUT_DIR}/chaos_soak_threads8.csv)
set(intra1_csv ${OUT_DIR}/chaos_soak_intra1.csv)
set(intra3_csv ${OUT_DIR}/chaos_soak_intra3.csv)
set(noskip_csv ${OUT_DIR}/chaos_soak_noskip.csv)
set(nofault_csv ${OUT_DIR}/chaos_soak_nofault.csv)
set(request_file ${OUT_DIR}/chaos_soak.req)
file(REMOVE ${base_csv} ${replay_csv} ${threads2_csv} ${threads8_csv}
     ${intra1_csv} ${intra3_csv} ${noskip_csv} ${nofault_csv} ${request_file})

function(run_chaos description out_csv)
  execute_process(
    COMMAND ${EASTOOL} --summary-csv ${out_csv} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${description} failed (${result}):\n${stdout}${stderr}")
  endif()
  if(NOT EXISTS ${out_csv})
    message(FATAL_ERROR "${description}: summary CSV was not written")
  endif()
endfunction()

run_chaos("chaos baseline" ${base_csv} --scenario ${scenario} --threads 1)
run_chaos("chaos, 2 runner threads" ${threads2_csv} --scenario ${scenario} --threads 2)
run_chaos("chaos, 8 runner threads" ${threads8_csv} --scenario ${scenario} --threads 8)
run_chaos("chaos, 1 intra worker" ${intra1_csv} --scenario ${scenario} --intra-threads 1)
run_chaos("chaos, 3 intra workers" ${intra3_csv} --scenario ${scenario} --intra-threads 3)
run_chaos("chaos, skip-ahead off" ${noskip_csv} --scenario ${scenario} --no-skip-ahead)
run_chaos("chaos cancelled by --faults none" ${nofault_csv} --scenario ${scenario}
          --faults none)

# Replay from the canonical request file the run itself prints.
execute_process(
  COMMAND ${EASTOOL} --scenario ${scenario} --print-request
  RESULT_VARIABLE result
  OUTPUT_VARIABLE request_text
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--print-request failed (${result}):\n${stderr}")
endif()
file(WRITE ${request_file} "${request_text}")
run_chaos("chaos replayed from its request file" ${replay_csv} --request ${request_file})

# The summary must be a faulted run: the fault columns exist and faults
# actually fired.
file(STRINGS ${base_csv} summary_lines)
string(REPLACE ";" "\n" summary_text "${summary_lines}")
foreach(key migrations throughput faults_fired offline_cpu_ticks)
  if(NOT summary_text MATCHES "${key},")
    message(FATAL_ERROR "chaos summary CSV is missing ${key}:\n${summary_text}")
  endif()
endforeach()
if(summary_text MATCHES "faults_fired,0\n")
  message(FATAL_ERROR "chaos run fired no faults:\n${summary_text}")
endif()

# The cancelled run must carry no fault columns at all (byte-compatibility
# of fault-free output is the point of the optional columns).
file(STRINGS ${nofault_csv} nofault_lines)
string(REPLACE ";" "\n" nofault_text "${nofault_lines}")
if(nofault_text MATCHES "faults_fired" OR nofault_text MATCHES "offline_cpu_ticks")
  message(FATAL_ERROR "--faults none still emitted fault columns:\n${nofault_text}")
endif()

function(expect_identical description file_a file_b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${file_a} ${file_b}
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${description}: ${file_a} and ${file_b} differ")
  endif()
endfunction()

expect_identical("request replay" ${base_csv} ${replay_csv})
expect_identical("runner-thread independence (2)" ${base_csv} ${threads2_csv})
expect_identical("runner-thread independence (8)" ${base_csv} ${threads8_csv})
expect_identical("intra-worker independence (1)" ${base_csv} ${intra1_csv})
expect_identical("intra-worker independence (3)" ${base_csv} ${intra3_csv})
expect_identical("skip-ahead neutrality" ${base_csv} ${noskip_csv})

message(STATUS "chaos soak passed")
