# Writes OUTPUT, a header that defines SKYDIA_GIT_COMMIT as the commit of the
# git checkout at SOURCE_DIR, or "unknown" when SOURCE_DIR is not the root of
# one (or GIT_EXECUTABLE is empty). The header is rewritten only when its
# contents change, so an unchanged checkout recompiles nothing.
#
#   cmake -DGIT_EXECUTABLE=git -DSOURCE_DIR=<repo> -DOUTPUT=<header> \
#         -P commit_stamp.cmake
set(commit "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse --show-toplevel
            HEAD
    OUTPUT_VARIABLE git_out
    RESULT_VARIABLE git_result
    ERROR_QUIET
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(git_result EQUAL 0)
    string(REPLACE "\n" ";" git_lines "${git_out}")
    list(GET git_lines 0 toplevel)
    list(GET git_lines 1 head)
    get_filename_component(toplevel "${toplevel}" REALPATH)
    get_filename_component(source "${SOURCE_DIR}" REALPATH)
    # A source tree nested in some other repository is not a checkout.
    if(toplevel STREQUAL source)
      set(commit "${head}")
    endif()
  endif()
endif()

set(content "#define SKYDIA_GIT_COMMIT \"${commit}\"\n")
set(previous "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" previous)
endif()
if(NOT previous STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
