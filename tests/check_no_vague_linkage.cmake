# ODR guard for objects compiled for a wider ISA than the build's
# baseline (src/kernels/raw_kernels.h). Fails when any of them defines a
# weak, vague-linkage or unique symbol (nm types W, V and u): a header
# inline function, template instance or inline variable emitted there
# carries that ISA's encoding, and the linker may keep that copy for
# every caller, baseline ones on CPUs without the ISA included.
#
#   cmake -DNM=<nm> "-DOBJECTS=<a.o|b.o>" -P check_no_vague_linkage.cmake
if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR
          "usage: cmake -DNM=<nm> \"-DOBJECTS=<a.o|b.o>\" -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
string(REPLACE "|" ";" objects "${OBJECTS}")
set(failed FALSE)
foreach(object IN LISTS objects)
  execute_process(COMMAND "${NM}" --defined-only "${object}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0 OR symbols STREQUAL "")
    message(FATAL_ERROR "${NM} listed no symbols for ${object}")
  endif()
  # Mangled names hold no spaces: "<address> <type> <name>" per line.
  string(REGEX MATCHALL "[0-9a-fA-F]+ [WVu] [^\n]+" vague "${symbols}")
  foreach(line IN LISTS vague)
    message(SEND_ERROR "${object}: vague-linkage definition: ${line}")
    set(failed TRUE)
  endforeach()
endforeach()
if(failed)
  message(FATAL_ERROR "an ISA-specific object defines mergeable symbols")
endif()
list(LENGTH objects count)
message(STATUS "${count} object(s) define no weak, vague-linkage or unique symbol")
