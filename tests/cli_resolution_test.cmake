# Runs pier_cli's resolution mode over one generated census stream at
# --ingest-shards=1, 2 and 4, append-only and with --mutation-rate=0.05,
# and checks the end-state answer's contract (tools/pier_cli.cc): each
# stream prints byte-identical output at every shard count, and no
# line twice.
#
#   cmake -DCLI=<pier_cli> -DDATAGEN=<pier_datagen> -DWORK_DIR=<dir>
#         -P cli_resolution_test.cmake

cmake_minimum_required(VERSION 3.16)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(profiles "${WORK_DIR}/census.csv")
execute_process(
  COMMAND "${DATAGEN}" --dataset=census --scale=0.05 --seed=7
          "--profiles-out=${profiles}"
  RESULT_VARIABLE result
  ERROR_VARIABLE err)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "pier_datagen exited '${result}':\n${err}")
endif()

# Append-only, the stream has 758 matching pairs (the answer the
# single-engine loop printed before N=1 ran the sharded pipeline).
foreach(rate 0 0.05)
  unset(reference)
  foreach(shards 1 2 4)
    execute_process(
      COMMAND "${CLI}" "--profiles=${profiles}" --algorithm=I-PES
              --print-matches "--ingest-shards=${shards}"
              "--mutation-rate=${rate}"
      RESULT_VARIABLE result
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    set(run "--mutation-rate=${rate} --ingest-shards=${shards}")
    if(NOT result STREQUAL "0")
      message(FATAL_ERROR "${run}: exited '${result}':\n${err}")
    endif()
    string(REGEX MATCHALL "[^\n]+" lines "${out}")
    list(LENGTH lines count)
    list(REMOVE_DUPLICATES lines)
    list(LENGTH lines unique)
    if(NOT count EQUAL unique)
      message(FATAL_ERROR "${run}: ${count} lines, ${unique} distinct")
    endif()
    if(NOT DEFINED reference)
      set(reference "${out}")
      set(reference_count ${count})
    elseif(NOT out STREQUAL reference)
      message(FATAL_ERROR "${run}: output differs from --ingest-shards=1 "
                          "(${count} lines against ${reference_count})")
    endif()
  endforeach()
  if(rate STREQUAL "0" AND NOT reference_count EQUAL 758)
    message(FATAL_ERROR "append-only: ${reference_count} pairs, want 758")
  endif()
  message(STATUS "--mutation-rate=${rate}: ${reference_count} pairs at "
                 "--ingest-shards=1, 2 and 4")
endforeach()
