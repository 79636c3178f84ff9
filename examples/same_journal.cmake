# Runs `cynthiactl report` and `cynthiactl simulate --mitigate` on the same
# job (CI's report-smoke inputs) and fails unless both exit 0 and write
# byte-identical journals: the two commands share one execute_job path.
#
#   cmake -DCYNTHIACTL=<path> -DOUT_DIR=<dir> -P same_journal.cmake
set(job mnist --workers 4 --iterations 2000 --faults "crash:wk1@10+60\;slow:wk0@5x2"
    --minutes 60 --loss 0.9)
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${CYNTHIACTL}" report ${job}
                        --journal-out "${OUT_DIR}/report.jsonl"
                RESULT_VARIABLE report_exit OUTPUT_QUIET)
execute_process(COMMAND "${CYNTHIACTL}" simulate ${job} --mitigate
                        --journal-out "${OUT_DIR}/simulate.jsonl"
                RESULT_VARIABLE simulate_exit OUTPUT_QUIET)
if(NOT report_exit EQUAL 0 OR NOT simulate_exit EQUAL 0)
  message(FATAL_ERROR "exit codes: report ${report_exit}, simulate --mitigate ${simulate_exit}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT_DIR}/report.jsonl" "${OUT_DIR}/simulate.jsonl"
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "report and simulate --mitigate wrote different journals")
endif()
