# Golden digests: runs committed specs end to end and compares one SHA-256
# per entry against specs/golden.txt.
#
#   cmake -DFNCC_RUN=<fncc_run> [-DENTRIES=<name;...>|fat_tree|print]
#         [-DOUT_DIR=<dir>] [-DUPDATE=1] -P tests/golden.cmake
#
# An entry is a spec under specs/, run with the overrides in
# golden_args_<name> (short ones, so the fat-tree entries finish in a
# second or two) and, when golden_threads_<name> is set, once per listed
# `--threads` value: every run must produce the entry's one digest line.
# Each specs/<spec>.exp and each benchmark spec perfbench/specs/<spec>.exp
# also has a `print_<spec>` entry: the SHA-256 of `fncc_run --print
# <dir>/<spec>.exp` run from the source directory (so a resolved relative
# trace_file reads the same on every machine), the same digest `sha256sum`
# gives of that output.
# ENTRIES selects entries (default: all; `fat_tree` and `print` name those
# groups). A
# digest covers the bytes of every FCT and timeseries CSV the run's
# manifest lists, the manifest's `spec` text (without the machine-specific
# `output.dir` line) and each point's counters from `flows_completed` to
# `events_processed`. It leaves out `threads` and the wall times.
# -DUPDATE=1 rewrites the selected entries' lines instead of checking them;
# a changed digest is a behaviour change and needs a stated reason.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

# The short figure specs, each well under a second as committed.
set(FNCC_GOLDEN_SHORT quickstart fig9_response fig13_hops fig13e_fairness
    parking_lot incast_lhcs)
# The fat-tree and multi-pod paths (the partitioned window engine among
# them), cut down by overrides.
set(FNCC_GOLDEN_FAT_TREE fig14_websearch fig15_hadoop leaf_spine_all_to_all
    multirail_staggered_incast fat_tree_k16)
set(golden_args_fig14_websearch topology.k=4 workload.num_flows=60)
set(golden_args_fig15_hadoop topology.k=4 workload.num_flows=60)
set(golden_args_fat_tree_k16 workload.size_bytes=20000)
set(golden_threads_fat_tree_k16 1 2)
# The manifest's per-point counters, `flows_completed` to `events_processed`.
set(FNCC_GOLDEN_COUNTERS flows_completed flows_total pause_frames drops
    retransmits out_of_order asymmetric_acks lhcs_triggers events_processed)
get_filename_component(source_dir "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
set(golden_file "${source_dir}/specs/golden.txt")
file(GLOB spec_paths RELATIVE "${source_dir}" "${source_dir}/specs/*.exp"
     "${source_dir}/perfbench/specs/*.exp")
set(FNCC_GOLDEN_PRINT "")
foreach(path ${spec_paths})
  get_filename_component(spec "${path}" NAME_WE)
  list(APPEND FNCC_GOLDEN_PRINT print_${spec})
  set(path_print_${spec} "${path}")
endforeach()
set(all_entries ${FNCC_GOLDEN_SHORT} ${FNCC_GOLDEN_FAT_TREE}
    ${FNCC_GOLDEN_PRINT})
if(NOT FNCC_RUN)
  message(FATAL_ERROR "golden.cmake: pass -DFNCC_RUN=<path to fncc_run>")
endif()
if(NOT OUT_DIR)
  set(OUT_DIR "${CMAKE_CURRENT_BINARY_DIR}/golden_runs")
endif()
if(NOT ENTRIES)
  set(ENTRIES ${all_entries})
elseif(ENTRIES STREQUAL "fat_tree")
  set(ENTRIES ${FNCC_GOLDEN_FAT_TREE})
elseif(ENTRIES STREQUAL "print")
  set(ENTRIES ${FNCC_GOLDEN_PRINT})
endif()
foreach(name ${ENTRIES})
  if(NOT name IN_LIST all_entries)
    message(FATAL_ERROR "golden.cmake: unknown entry '${name}'")
  endif()
endforeach()

# Digest of one run in `dir`, returned in `out_var`.
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

if(EXISTS "${golden_file}")
  file(STRINGS "${golden_file}" golden_lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
endif()
foreach(line ${golden_lines})
  string(REPLACE " " ";" fields "${line}")
  list(GET fields 0 name)
  list(GET fields 1 digest)
  set(expected_${name} "${digest}")
endforeach()

set(failures "")
set(runs 0)
foreach(name ${ENTRIES})
  set(thread_runs "${golden_threads_${name}}")
  if(NOT thread_runs)
    set(thread_runs default)
  endif()
  foreach(threads ${thread_runs})
    set(dir "${OUT_DIR}/${name}")
    set(threads_args "")
    if(NOT threads STREQUAL "default")
      set(dir "${dir}.threads${threads}")
      set(threads_args --threads ${threads})
    endif()
    if(DEFINED path_${name})
      execute_process(
        COMMAND "${FNCC_RUN}" --print "${path_${name}}"
        WORKING_DIRECTORY "${source_dir}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fncc_run --print ${path_${name}} exited "
                "${rc}:\n${out}${err}")
      endif()
      string(SHA256 digest "${out}")
    else()
      file(REMOVE_RECURSE "${dir}")
      execute_process(
        COMMAND "${FNCC_RUN}" ${threads_args} "${source_dir}/specs/${name}.exp"
                ${golden_args_${name}} "output.dir=${dir}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fncc_run ${name}.exp exited ${rc}:\n${out}${err}")
      endif()
      golden_digest("${dir}" digest)
    endif()
    math(EXPR runs "${runs} + 1")
    if(UPDATE AND NOT DEFINED actual_${name})
      set(actual_${name} "${digest}")
    elseif(UPDATE AND NOT actual_${name} STREQUAL digest)
      message(FATAL_ERROR "${name}: --threads ${threads} digests ${digest}, "
              "an earlier run ${actual_${name}}")
    elseif(NOT UPDATE AND NOT DEFINED expected_${name})
      string(APPEND failures "  ${name}: no digest in golden.txt\n")
    elseif(NOT UPDATE AND NOT expected_${name} STREQUAL digest)
      string(APPEND failures "  ${name} (threads ${threads}): expected "
             "${expected_${name}}, got ${digest}\n")
    endif()
  endforeach()
endforeach()

if(UPDATE)
  set(content "# Golden digests of committed specs; see tests/golden.cmake.\n")
  foreach(name ${all_entries})
    if(DEFINED actual_${name})
      string(APPEND content "${name} ${actual_${name}}\n")
    elseif(DEFINED expected_${name})
      string(APPEND content "${name} ${expected_${name}}\n")
    endif()
  endforeach()
  file(WRITE "${golden_file}" "${content}")
  message(STATUS "wrote ${golden_file}")
  return()
endif()
if(failures)
  message(FATAL_ERROR "golden digests differ (outputs in ${OUT_DIR}):\n"
          "${failures}"
          "A deliberate behaviour change reruns with -DUPDATE=1.")
endif()
message(STATUS "${runs} golden runs match")
