# Runs one program and compares its standard output with a golden file,
# byte for byte.  Registered as a ctest by the top-level CMakeLists:
#
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DGOLDEN=<file>
#         -P tests/golden_output.cmake
#
# Fails when the program exits nonzero or prints anything else.  On a
# deliberate model change, replace the golden file with the "actual:" text
# the failure prints, in a commit of its own.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} differs from ${GOLDEN}\n"
                      "expected:\n${expected}\nactual:\n${actual}")
endif()
