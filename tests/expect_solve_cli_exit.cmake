# ctest helper for examples/solve_cli: runs SOLVE_CLI on GRAPH, with the
# tolerance argument TOL when it is set, and fails unless the exit status
# equals EXPECT.
set(cmd "${SOLVE_CLI}" "${GRAPH}")
if(DEFINED TOL)
  list(APPEND cmd "${TOL}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "solve_cli exited with '${rc}', expected ${EXPECT}")
endif()
