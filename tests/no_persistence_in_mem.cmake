# Fails when a reclaimer header issues a persistence instruction.
# Persistence decisions live in the policies (ds/policies.hpp); the
# reclaimers in include/repro/mem/ only allocate, retire and recycle.
#   cmake -DMEM_DIR=<repo>/include/repro/mem -P no_persistence_in_mem.cmake
file(GLOB_RECURSE headers "${MEM_DIR}/*.hpp")
if(NOT headers)
  message(FATAL_ERROR "no headers under ${MEM_DIR}")
endif()
set(found "")
foreach(h IN LISTS headers)
  file(STRINGS "${h}" hits REGEX "pmem::(flush|fence|psync)")
  foreach(line IN LISTS hits)
    string(APPEND found "\n  ${h}: ${line}")
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "persistence instructions in mem/:${found}")
endif()
