# Output pin for one bench: run it in smoke mode inside its own
# working directory and compare SHA-256 hashes of what it prints and
# of each BENCH_*.json it writes against the committed pins.
#
#   cmake -DBENCH=<exe> -DNAME=<bench> -DWORKDIR=<dir> \
#         -DPINS=<pins file> [-DSKIP_STDOUT=ON] -P bench_pin.cmake
#
# The pins file holds one `<bench> <output> <sha256>` line per
# pinned output, where <output> is `stdout` or a BENCH_*.json name.
# JSON is hashed with every `wall*`, `events_per_sec`,
# `sim_req_per_sec`, `rss_delta_mb` and `peak_rss_mb` value dropped,
# so only simulated results are pinned. SKIP_STDOUT is for
# a bench whose printed table carries wall time. The program runs
# with TMPDIR set to WORKDIR, and WORKDIR is replaced by `<workdir>`
# in its stdout before hashing, so a printed temp path is stable.

cmake_minimum_required(VERSION 3.20)

foreach(var BENCH NAME WORKDIR PINS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_pin.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{PFS_BENCH_SMOKE} 1)
set(ENV{TMPDIR} "${WORKDIR}")
execute_process(COMMAND "${BENCH}"
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE printed
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} exited with ${status}")
endif()
string(REPLACE "${WORKDIR}" "<workdir>" printed "${printed}")

file(STRINGS "${PINS}" pin_lines REGEX "^${NAME} ")
set(checked 0)
foreach(line IN LISTS pin_lines)
    string(REPLACE " " ";" fields "${line}")
    list(GET fields 1 output)
    list(GET fields 2 expected)
    if(output STREQUAL "stdout")
        if(SKIP_STDOUT)
            message(FATAL_ERROR "${NAME}: stdout pinned but skipped")
        endif()
        set(content "${printed}")
    else()
        if(NOT EXISTS "${WORKDIR}/${output}")
            message(FATAL_ERROR "${NAME} did not write ${output}")
        endif()
        file(READ "${WORKDIR}/${output}" content)
        string(REGEX REPLACE
            ", \"(wall[A-Za-z_]*|events_per_sec|sim_req_per_sec|rss_delta_mb|peak_rss_mb)\": [^,}]*" ""
            content "${content}")
    endif()
    string(SHA256 actual "${content}")
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR
            "${NAME} ${output}: sha256 ${actual}, pinned ${expected}")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()

# Every JSON the bench writes, and its stdout unless skipped, must
# be pinned: a missing pin line is an error, not a silent pass.
file(GLOB written RELATIVE "${WORKDIR}" "${WORKDIR}/BENCH_*.json")
list(LENGTH written expected_count)
if(NOT SKIP_STDOUT)
    math(EXPR expected_count "${expected_count} + 1")
endif()
if(NOT checked EQUAL expected_count)
    message(FATAL_ERROR "${NAME}: ${checked} pins checked, "
        "${expected_count} outputs written")
endif()
message(STATUS "${NAME}: ${checked} pinned outputs match")
