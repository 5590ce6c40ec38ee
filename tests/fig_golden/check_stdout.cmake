# Runs one paper-figure binary with every TDB_* lever unset and compares
# its stdout byte for byte with the committed golden.
#
#   cmake -DBINARY=<fig binary> -DGOLDEN=<golden .stdout>
#         -DACTUAL=<where to write this run's stdout> -P check_stdout.cmake
#
# Timing lines go to stderr, so stdout is deterministic.  The levers listed
# here are every variable DatabaseOptions::FromEnv and bench/bench_util.h
# read.
set(levers
    TDB_METRICS TDB_JOIN_METHOD TDB_VECTOR_EXEC TDB_MORSEL_CAP
    TDB_EXEC_THREADS TDB_COMPILED_EXPR TDB_PAGE_SIZE TDB_PAGE_CHECKSUM
    TDB_POOL_FRAMES TDB_POOL_FILE_CAP TDB_VACUUM_PARTITION TDB_PLAN_CACHE
    TDB_BENCH_THREADS)
set(unset_args)
foreach(lever IN LISTS levers)
  list(APPEND unset_args --unset=${lever})
endforeach()

get_filename_component(actual_dir ${ACTUAL} DIRECTORY)
file(MAKE_DIRECTORY ${actual_dir})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${unset_args} ${BINARY}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN}; "
                      "compare with: diff ${GOLDEN} ${ACTUAL}")
endif()
