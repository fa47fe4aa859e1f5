# Runs a pier tool with a bad flag and checks that it exits with
# status 2 and a diagnostic, rather than aborting on an uncaught
# exception or silently ignoring the flag. By default the bad flag is a
# non-numeric value for numeric flag FLAG; BAD_ARG/EXPECT override the
# argument and the diagnostic it must produce.
#
#   cmake -DTOOL=<binary> -DFLAG=<name> -DWORK_DIR=<dir>
#         [-DEXTRA_ARGS=<arg;arg;...>] [-DBAD_ARG=<arg> -DEXPECT=<text>]
#         -P cli_flags_test.cmake
#
# A small profiles CSV (@PROFILES@) and ground-truth CSV (@TRUTH@) are
# written to WORK_DIR first, so a tool that loads its input before
# reading the flag gets that far.

cmake_minimum_required(VERSION 3.16)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(profiles "${WORK_DIR}/profiles.csv")
file(WRITE "${profiles}"
  "profile_id,source,attribute,value\n"
  "0,0,name,john smith\n"
  "1,0,name,jon smith\n")
file(WRITE "${WORK_DIR}/truth.csv" "profile_id_a,profile_id_b\n0,1\n")
string(REPLACE "@PROFILES@" "${profiles}" args "${EXTRA_ARGS}")
string(REPLACE "@TRUTH@" "${WORK_DIR}/truth.csv" args "${args}")
string(REPLACE "@WORK_DIR@" "${WORK_DIR}" args "${args}")

if(NOT DEFINED BAD_ARG)
  set(BAD_ARG "--${FLAG}=abc")
  set(EXPECT "flag --${FLAG}: expected ")
endif()

execute_process(
  COMMAND "${TOOL}" ${args} "${BAD_ARG}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

string(FIND "${err}" "${EXPECT}" at)
if(NOT result STREQUAL "2" OR at EQUAL -1)
  message(FATAL_ERROR
    "${BAD_ARG}: want exit status 2 and a diagnostic containing "
    "'${EXPECT}'; got status '${result}' and stderr:\n${err}")
endif()
