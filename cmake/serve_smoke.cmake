# Experiment-service smoke test, run by ctest under the "service" label
# (see the tests section of the root CMakeLists): the daemon end to end
# through the real binary and a real Unix-domain socket.
#
#   * `eastool serve` starts on a private socket and prints its ready line;
#   * `eastool submit --batch` drives a two-request batch (a seed sweep and
#     a single run) over the socket and writes the streamed records as
#     JSONL, reordered to file order;
#   * that file must be byte-identical to the offline replay - one
#     `eastool --request --jsonl` invocation per request, concatenated in
#     submission order - which is the service's determinism contract;
#   * a tagged submission must carry its tag into the JSONL;
#   * a submission with a misread value (`workload = mixed:3x`) must come
#     back as an `err` line, and the daemon must keep serving;
#   * `eastool status` must answer with the expected counters;
#   * `eastool shutdown` must stop the daemon, which then exits 0.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

set(work_dir ${OUT_DIR}/serve_smoke)
file(REMOVE_RECURSE ${work_dir})
file(MAKE_DIRECTORY ${work_dir})
# Unix socket paths are length-limited (~100 chars), so the socket lives in
# /tmp keyed by this script's pid rather than under the build tree.
execute_process(COMMAND sh -c "echo $$" OUTPUT_VARIABLE smoke_pid
                OUTPUT_STRIP_TRAILING_WHITESPACE)
set(socket /tmp/eas_serve_smoke_${smoke_pid}.sock)
file(REMOVE ${socket})

set(serve_log ${work_dir}/serve.log)
set(batch_file ${work_dir}/batch.txt)
set(serve_jsonl ${work_dir}/serve.jsonl)
set(offline_jsonl ${work_dir}/offline.jsonl)

set(request_a "name = sweep-a; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 5; runs = 2")
set(request_b "name = solo-b; tag = smoke-lane; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 9")
file(WRITE ${batch_file} "${request_a}\n${request_b}\n")

# --- start the daemon in the background and wait for its ready line ----------

execute_process(
  COMMAND sh -c "'${EASTOOL}' serve --socket '${socket}' --queue-depth 8 --threads 2 > '${serve_log}' 2>&1 & echo $!"
  OUTPUT_VARIABLE daemon_pid
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE start_result)
if(NOT start_result EQUAL 0 OR daemon_pid STREQUAL "")
  message(FATAL_ERROR "could not start eastool serve")
endif()

function(stop_daemon)
  execute_process(COMMAND sh -c "kill ${daemon_pid} 2>/dev/null || true")
endfunction()

set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${serve_log})
    file(READ ${serve_log} log_text)
    if(log_text MATCHES "serving on")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  stop_daemon()
  file(READ ${serve_log} log_text)
  message(FATAL_ERROR "eastool serve never became ready:\n${log_text}")
endif()

# --- submit the batch over the socket ----------------------------------------

execute_process(
  COMMAND ${EASTOOL} submit --socket ${socket} --batch ${batch_file} --jsonl ${serve_jsonl}
  RESULT_VARIABLE submit_result
  OUTPUT_VARIABLE submit_stdout
  ERROR_VARIABLE submit_stderr)
if(NOT submit_result EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "eastool submit failed (${submit_result}):\n${submit_stdout}${submit_stderr}")
endif()
if(NOT submit_stderr MATCHES "3 records from 2 submissions")
  stop_daemon()
  message(FATAL_ERROR "submit record accounting off:\n${submit_stdout}${submit_stderr}")
endif()

# --- offline replay: one eastool --request per request, concatenated ---------

# The request texts contain semicolons, so they travel as single quoted
# arguments, never through CMake lists (which would split them).
function(replay_offline index request_text)
  set(request_file ${work_dir}/request_${index}.txt)
  set(part_jsonl ${work_dir}/offline_${index}.jsonl)
  file(WRITE ${request_file} "${request_text}\n")
  execute_process(
    COMMAND ${EASTOOL} --request ${request_file} --jsonl ${part_jsonl}
    RESULT_VARIABLE offline_result
    OUTPUT_VARIABLE offline_stdout
    ERROR_VARIABLE offline_stderr)
  if(NOT offline_result EQUAL 0)
    stop_daemon()
    message(FATAL_ERROR "offline replay failed (${offline_result}):\n${offline_stdout}${offline_stderr}")
  endif()
  file(READ ${part_jsonl} part_text)
  set(offline_part_${index} "${part_text}" PARENT_SCOPE)
endfunction()

replay_offline(0 "${request_a}")
replay_offline(1 "${request_b}")
file(WRITE ${offline_jsonl} "${offline_part_0}${offline_part_1}")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${serve_jsonl} ${offline_jsonl}
                RESULT_VARIABLE compare_result)
if(NOT compare_result EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "serve output is not byte-identical to the offline replay: "
                      "${serve_jsonl} vs ${offline_jsonl}")
endif()

# The tagged request's record must carry its tag, and only that record:
# three records, exactly one tag field. (The lines themselves hold
# semicolons, so this checks the raw text, not a CMake list of lines.)
file(READ ${serve_jsonl} serve_text)
string(REGEX MATCHALL "\"tag\": \"smoke-lane\"" tag_fields "${serve_text}")
list(LENGTH tag_fields tag_count)
if(NOT tag_count EQUAL 1)
  stop_daemon()
  message(FATAL_ERROR "want exactly 1 tagged record, found ${tag_count}:\n${serve_text}")
endif()

# --- a misread value is a structured rejection, and serving goes on ----------

set(bad_request_file ${work_dir}/bad_request.txt)
file(WRITE ${bad_request_file} "workload = mixed:3x; duration-s = 1\n")
execute_process(
  COMMAND ${EASTOOL} submit --socket ${socket} --request ${bad_request_file}
  RESULT_VARIABLE bad_result
  OUTPUT_VARIABLE bad_stdout
  ERROR_VARIABLE bad_stderr)
if(NOT bad_result EQUAL 1 OR NOT bad_stderr MATCHES "bad workload \"mixed:3x\"")
  stop_daemon()
  message(FATAL_ERROR "workload = mixed:3x must come back as an err line "
                      "(${bad_result}):\n${bad_stdout}${bad_stderr}")
endif()

# --- status ------------------------------------------------------------------

execute_process(
  COMMAND ${EASTOOL} status --socket ${socket}
  RESULT_VARIABLE status_result
  OUTPUT_VARIABLE status_stdout
  ERROR_VARIABLE status_stderr)
if(NOT status_result EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "eastool status failed (${status_result}):\n${status_stdout}${status_stderr}")
endif()
foreach(expectation "\"queue_capacity\": 8" "\"completed_runs\": 3"
        "\"completed_submissions\": 2" "\"rejected_submissions\": 1" "\"workers\": 2"
        "uptime_s" "runs_per_s")
  if(NOT status_stdout MATCHES "${expectation}")
    stop_daemon()
    message(FATAL_ERROR "status is missing `${expectation}`:\n${status_stdout}")
  endif()
endforeach()

# --- shutdown: the verb stops the daemon, which exits on its own -------------

execute_process(
  COMMAND ${EASTOOL} shutdown --socket ${socket}
  RESULT_VARIABLE shutdown_result
  OUTPUT_VARIABLE shutdown_stdout
  ERROR_VARIABLE shutdown_stderr)
if(NOT shutdown_result EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "eastool shutdown failed (${shutdown_result}):\n${shutdown_stdout}${shutdown_stderr}")
endif()

set(stopped FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND sh -c "kill -0 ${daemon_pid} 2>/dev/null"
                  RESULT_VARIABLE alive_result)
  if(NOT alive_result EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  stop_daemon()
  message(FATAL_ERROR "daemon still running after eastool shutdown")
endif()

file(READ ${serve_log} log_text)
if(NOT log_text MATCHES "service stopped")
  message(FATAL_ERROR "daemon did not log a clean stop:\n${log_text}")
endif()

message(STATUS "serve smoke test passed")
