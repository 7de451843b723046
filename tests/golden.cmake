# Golden digests: runs the short committed specs end to end and compares
# one SHA-256 per spec against specs/golden.txt.
#
#   cmake -DFNCC_RUN=<fncc_run> [-DOUT_DIR=<dir>] [-DUPDATE=1]
#         -P tests/golden.cmake
#
# A spec's digest covers the bytes of every FCT and timeseries CSV its
# manifest lists, the manifest's `spec` text (without the machine-specific
# `output.dir` line) and each point's counters from `flows_completed` to
# `events_processed`. It leaves out `threads` and the wall times.
# -DUPDATE=1 rewrites golden.txt instead of checking it; a changed digest is
# a behaviour change and needs a stated reason.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(FNCC_GOLDEN_SPECS quickstart fig9_response fig13_hops fig13e_fairness
    parking_lot incast_lhcs)
# The manifest's per-point counters, `flows_completed` to `events_processed`.
set(FNCC_GOLDEN_COUNTERS flows_completed flows_total pause_frames drops
    retransmits out_of_order asymmetric_acks lhcs_triggers events_processed)
get_filename_component(source_dir "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
set(golden_file "${source_dir}/specs/golden.txt")
if(NOT FNCC_RUN)
  message(FATAL_ERROR "golden.cmake: pass -DFNCC_RUN=<path to fncc_run>")
endif()
if(NOT OUT_DIR)
  set(OUT_DIR "${CMAKE_CURRENT_BINARY_DIR}/golden_runs")
endif()

# Digest of one spec's run in `dir`, returned in `out_var`.
function(golden_digest dir out_var)
  file(GLOB manifests "${dir}/*_manifest.json")
  list(LENGTH manifests n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "${dir}: expected one manifest, found ${n}")
  endif()
  file(READ "${manifests}" json)
  string(JSON spec GET "${json}" spec)
  string(REGEX REPLACE "\ndir = [^\n]*" "" spec "${spec}")
  set(text "spec\n${spec}")
  string(JSON num_points LENGTH "${json}" points)
  math(EXPR last_point "${num_points} - 1")
  foreach(p RANGE ${last_point})
    string(JSON point GET "${json}" points ${p})
    string(APPEND text "point ${p}\n")
    foreach(key fct timeseries)
      string(JSON path ERROR_VARIABLE missing GET "${point}" files ${key})
      if(NOT missing)
        get_filename_component(name "${path}" NAME)
        file(SHA256 "${path}" sha)
        string(APPEND text "${key} ${name} ${sha}\n")
      endif()
    endforeach()
    foreach(key ${FNCC_GOLDEN_COUNTERS})
      string(JSON value GET "${point}" ${key})
      string(APPEND text "${key} ${value}\n")
    endforeach()
  endforeach()
  string(SHA256 digest "${text}")
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

set(lines "")
foreach(name ${FNCC_GOLDEN_SPECS})
  set(dir "${OUT_DIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND "${FNCC_RUN}" "${source_dir}/specs/${name}.exp" "output.dir=${dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fncc_run ${name}.exp exited ${rc}:\n${out}${err}")
  endif()
  golden_digest("${dir}" digest)
  list(APPEND lines "${name} ${digest}")
  set(actual_${name} "${digest}")
endforeach()

if(UPDATE)
  set(content "# Golden digests of the short specs; see tests/golden.cmake.\n")
  foreach(line ${lines})
    string(APPEND content "${line}\n")
  endforeach()
  file(WRITE "${golden_file}" "${content}")
  message(STATUS "wrote ${golden_file}")
  return()
endif()

file(STRINGS "${golden_file}" golden_lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
foreach(line ${golden_lines})
  string(REPLACE " " ";" fields "${line}")
  list(GET fields 0 name)
  list(GET fields 1 digest)
  set(expected_${name} "${digest}")
endforeach()
set(failures "")
foreach(name ${FNCC_GOLDEN_SPECS})
  if(NOT DEFINED expected_${name})
    string(APPEND failures "  ${name}: no digest in golden.txt\n")
  elseif(NOT expected_${name} STREQUAL actual_${name})
    string(APPEND failures
           "  ${name}: expected ${expected_${name}}, got ${actual_${name}}\n")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "golden digests differ (outputs in ${OUT_DIR}):\n"
          "${failures}"
          "A deliberate behaviour change reruns with -DUPDATE=1.")
endif()
list(LENGTH FNCC_GOLDEN_SPECS n)
message(STATUS "${n} golden digests match")
