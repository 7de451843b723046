# Runs a command and passes only when it exits non-zero AND its combined
# stdout/stderr matches the regular expression EXPECT (and, when EXPECT_RC
# is given, the exit status is exactly EXPECT_RC):
#
#   cmake -DEXPECT=<regex> [-DEXPECT_RC=<n>] -P expect_failure.cmake
#         <program> [args...]
#
# Everything after the script path is the command line.
set(cmd)
set(state "options")  # options -> script (the arg after -P) -> command
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(state STREQUAL "command")
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(state STREQUAL "script")
    set(state "command")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    set(state "script")
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_failure.cmake: no command given")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${out}${err}")
endif()
if(DEFINED EXPECT_RC AND NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "expected exit ${EXPECT_RC}, got ${rc}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "exit ${rc}, but the output lacks '${EXPECT}':\n${out}${err}")
endif()
message(STATUS "exit ${rc} with '${EXPECT}'")
