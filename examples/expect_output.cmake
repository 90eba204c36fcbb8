# Runs one program and checks how it ended; a CTest helper.
#
#   cmake -DPROG=prog "-DARGS=a b c" -DOUT=file -DGOLDEN=file -P expect_output.cmake
#     passes when the program exits 0 and its stdout, written to OUT, equals
#     GOLDEN byte for byte;
#   cmake -DPROG=prog "-DARGS=a b c" -DOUT=file "-DFAIL_REGEX=re" -P expect_output.cmake
#     passes when the program exits non-zero and its stderr followed by its
#     stdout matches FAIL_REGEX.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args} OUTPUT_FILE ${OUT} ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(DEFINED GOLDEN)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROG} ${ARGS} exited with ${rc}:\n${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "stdout of ${PROG} ${ARGS} (in ${OUT}) differs from ${GOLDEN}")
  endif()
else()
  file(READ ${OUT} out)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${PROG} ${ARGS} exited with 0; expected a failure")
  endif()
  if(NOT "${err}${out}" MATCHES "${FAIL_REGEX}")
    message(FATAL_ERROR "output of ${PROG} ${ARGS} does not match '${FAIL_REGEX}':\n${err}${out}")
  endif()
endif()
