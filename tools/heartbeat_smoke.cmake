# Heartbeat round trip on a deadline-truncated run, as a ctest -P script:
#   cmake -DCLI=<ghd_cli> -DPYTHON=<python3> -DSRC=<repo root> -P heartbeat_smoke.cmake
# grid7x7 cannot finish in 100ms, so ghd_cli must exit 3 and its stderr must
# be a heartbeat stream whose one final line names the deadline; the stream
# and the --metrics-out dump must both load in tools/obs_top.py.
set(stream heartbeat_smoke.err)
set(dump heartbeat_smoke_metrics.json)
execute_process(
  COMMAND ${CLI} anytime ${SRC}/data/grid7x7.hg --timeout-ms 100
          --heartbeat-ms 20 --metrics-out=${dump}
  OUTPUT_QUIET ERROR_FILE ${stream} RESULT_VARIABLE code)
if(NOT code EQUAL 3)
  message(FATAL_ERROR "ghd_cli exited ${code}, expected 3 (truncated)")
endif()
foreach(check
    "${SRC}/tools/validate_report.py;--heartbeat;--min-lines;3;--require-stop-reason;deadline;${stream}"
    "${SRC}/tools/obs_top.py;--once;${stream}"
    "${SRC}/tools/obs_top.py;--once;${dump}")
  execute_process(COMMAND ${PYTHON} ${check} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "check failed (exit ${code}): ${check}")
  endif()
endforeach()
