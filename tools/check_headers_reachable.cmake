# Fails when a header under src/ is included by no program file: no file in
# src/, examples/ or bench/ other than the header's own .cpp names it. Tests
# do not count, so a module that only tests reach fails here.
#
#   cmake -DROOT=<repository root> -P check_headers_reachable.cmake
cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
file(GLOB_RECURSE files "${ROOT}/src/*.cpp" "${ROOT}/src/*.hpp" "${ROOT}/examples/*.cpp"
     "${ROOT}/examples/*.hpp" "${ROOT}/bench/*.cpp" "${ROOT}/bench/*.hpp")

set(included "")
foreach(file IN LISTS files)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*$" "\\1" header "${line}")
    string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${ROOT}/src/${header}")
    if(NOT file STREQUAL own_cpp)
      list(APPEND included "${header}")
    endif()
  endforeach()
endforeach()

set(unreachable "")
foreach(header IN LISTS headers)
  if(NOT header IN_LIST included)
    list(APPEND unreachable "src/${header}")
  endif()
endforeach()

list(LENGTH headers count)
if(unreachable)
  list(JOIN unreachable "\n  " names)
  message(FATAL_ERROR "headers that no file in src/, examples/ or bench/ includes, "
                      "other than their own .cpp:\n  ${names}")
endif()
message(STATUS "all ${count} headers under src/ are included by a program file")
