# Scenario golden test, run by ctest under the "golden" label (see the tests
# section of the root CMakeLists): every builtin scenario under every
# registered balancing policy, 5 simulated seconds each (48 runs), through
# `eastool --batch`, byte-compared against a committed JSONL record file.
#
# The expected file pins those records. Refresh it only in a change that
# alters outputs on purpose, and say so in that change:
#
#   eastool --batch tests/golden/scenarios.batch \
#           --jsonl tests/golden/scenarios.expected.jsonl --threads 4
#
# Variables: EASTOOL (path to the binary), BATCH (request file), EXPECTED
# (expected JSONL), OUT_DIR (writable output directory).

set(actual ${OUT_DIR}/golden_scenarios.jsonl)
file(REMOVE ${actual})

execute_process(
  COMMAND ${EASTOOL} --batch ${BATCH} --jsonl ${actual} --threads 4
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --batch ${BATCH} failed (${result}):\n${stderr}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${EXPECTED}
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  # Name the first record that differs so a failure points at one
  # scenario x policy pair instead of a 130 KB diff.
  file(STRINGS ${actual} actual_lines)
  file(STRINGS ${EXPECTED} expected_lines)
  list(LENGTH actual_lines actual_length)
  list(LENGTH expected_lines expected_length)
  if(NOT actual_length EQUAL expected_length)
    message(FATAL_ERROR
            "${actual} has ${actual_length} record(s); ${EXPECTED} has ${expected_length}")
  endif()
  math(EXPR last "${actual_length} - 1")
  foreach(i RANGE ${last})
    list(GET actual_lines ${i} actual_line)
    list(GET expected_lines ${i} expected_line)
    if(NOT actual_line STREQUAL expected_line)
      math(EXPR record "${i} + 1")
      message(FATAL_ERROR "record ${record} differs from ${EXPECTED}:\n"
                          "got:  ${actual_line}\nwant: ${expected_line}")
    endif()
  endforeach()
  message(FATAL_ERROR "${actual} and ${EXPECTED} differ")
endif()

message(STATUS "golden scenarios: all records byte-identical")
