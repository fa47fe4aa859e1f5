# Runs a pier tool with a non-numeric value for a numeric flag and
# checks that it exits with status 2 and a diagnostic naming the flag,
# rather than aborting on an uncaught exception.
#
#   cmake -DTOOL=<binary> -DFLAG=<name> -DWORK_DIR=<dir>
#         [-DEXTRA_ARGS=<arg;arg;...>] -P cli_flags_test.cmake
#
# A small profiles CSV is written to WORK_DIR first, so a tool that
# loads its input before reading the flag gets that far.

cmake_minimum_required(VERSION 3.16)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(profiles "${WORK_DIR}/profiles.csv")
file(WRITE "${profiles}"
  "profile_id,source,attribute,value\n"
  "0,0,name,john smith\n"
  "1,0,name,jon smith\n")
string(REPLACE "@PROFILES@" "${profiles}" args "${EXTRA_ARGS}")
string(REPLACE "@WORK_DIR@" "${WORK_DIR}" args "${args}")

execute_process(
  COMMAND "${TOOL}" ${args} "--${FLAG}=abc"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

set(expected "flag --${FLAG}: expected ")
string(FIND "${err}" "${expected}" at)
if(NOT result STREQUAL "2" OR at EQUAL -1)
  message(FATAL_ERROR
    "--${FLAG}=abc: want exit status 2 and a diagnostic starting "
    "'${expected}'; got status '${result}' and stderr:\n${err}")
endif()
