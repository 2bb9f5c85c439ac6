# Cluster smoke test, run by ctest under the "cluster-smoke" label (see the
# tests section of the root CMakeLists): the datacenter-consolidation
# scenario - 512 logical CPUs on the five-level 2:4:8:4:2 tree - at a
# reduced duration, exercising the package-parallel tick pipeline end to end
# and checking its determinism contracts byte-for-byte on the summary CSV:
#
#   * worker-count independence: --intra-threads 1 and --intra-threads 3
#     must produce byte-identical summaries;
#   * skip-ahead neutrality: --no-skip-ahead must not change the bytes.
#
# The duration is sized for sanitized Debug builds (ASan/UBSan/TSan legs run
# this label); the TIMEOUT on the ctest registration is the real guard.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

set(scenario datacenter-consolidation)
set(duration 2)

set(intra1_csv ${OUT_DIR}/cluster_smoke_intra1.csv)
set(intra3_csv ${OUT_DIR}/cluster_smoke_intra3.csv)
set(noskip_csv ${OUT_DIR}/cluster_smoke_noskip.csv)
file(REMOVE ${intra1_csv} ${intra3_csv} ${noskip_csv})

function(run_cluster description out_csv)
  execute_process(
    COMMAND ${EASTOOL} --scenario ${scenario} --duration-s ${duration}
            --summary-csv ${out_csv} ${ARGN}
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

run_cluster("sharded run (1 worker)" ${intra1_csv} --intra-threads 1)
run_cluster("sharded run (3 workers)" ${intra3_csv} --intra-threads 3)
run_cluster("sharded run, skip-ahead off" ${noskip_csv} --intra-threads 3 --no-skip-ahead)

# The summary must be a real run of the 512-CPU machine, not a truncated one.
file(STRINGS ${intra1_csv} summary_lines)
list(LENGTH summary_lines summary_length)
if(summary_length LESS 5)
  message(FATAL_ERROR "cluster summary has ${summary_length} line(s); want the full summary")
endif()
string(REPLACE ";" "\n" summary_text "${summary_lines}")
foreach(key migrations completions throughput)
  if(NOT summary_text MATCHES "${key},")
    message(FATAL_ERROR "cluster summary CSV is missing ${key}:\n${summary_text}")
  endif()
endforeach()

function(expect_identical description file_a file_b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${file_a} ${file_b}
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${description}: ${file_a} and ${file_b} differ")
  endif()
endfunction()

expect_identical("worker-count independence" ${intra1_csv} ${intra3_csv})
expect_identical("skip-ahead neutrality" ${intra3_csv} ${noskip_csv})

message(STATUS "cluster smoke test passed")
