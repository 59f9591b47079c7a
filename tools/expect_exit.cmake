# Runs COMMAND (no arguments) and fails unless it exits with EXPECTED_EXIT.
#   cmake -DCOMMAND=<binary> -DEXPECTED_EXIT=<code> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code STREQUAL EXPECTED_EXIT)
  message(FATAL_ERROR
          "${COMMAND} exited with ${exit_code}, expected ${EXPECTED_EXIT}\n"
          "${out}${err}")
endif()
