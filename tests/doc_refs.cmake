# Documentation cross-references: every DESIGN.md section that a
# program or document cites, and every file and test DESIGN.md names,
# must exist.
#
#   cmake -DROOT=<source dir> -P doc_refs.cmake
#
# Checked, each failure reported as `file:line: reason`:
#   - `DESIGN.md §N` (any line naming DESIGN and a §N) needs a
#     `## §N` heading, and `§N, "Title"` (comma optional, the title may
#     wrap onto the next line) a `### Title` inside that section. Files:
#     src/, tests/, bench/, tools/, examples/, README.md, the verify
#     skill and DESIGN.md itself.
#   - A path DESIGN.md names (a `*.cc`/`*.hh`/`*.cpp` anywhere, or a
#     backticked `dir/...` whose first part is a directory of the
#     repo or of src/) must exist; a bench name resolves to
#     bench/<name>.cpp, a bare file name is looked up recursively.
#   - A backticked `Suite.Test` in DESIGN.md needs a TEST/TEST_F/TEST_P
#     in tests/, a backticked suite name (ending in Test, Property or
#     Matrix) a test of that suite, `BM_x` a BENCHMARK(BM_x) in bench/,
#     `test_x` a tests/test_x.cpp and `bench_pin_x` a pinned bench x in
#     bench/bench_pins.txt.

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED ROOT)
    message(FATAL_ERROR "doc_refs.cmake needs -DROOT=<source dir>")
endif()

set(design "${ROOT}/DESIGN.md")
set(errors "")
set(error_count 0)

macro(fail where what)
    string(APPEND errors "${where}: ${what}\n")
    math(EXPR error_count "${error_count} + 1")
endmacro()

# The lines of `file` as a list. The characters CMake's list syntax
# treats specially (\ ; [ ]) are masked, so each line is one element.
function(read_lines out file)
    file(READ "${file}" text)
    string(REPLACE "\\" "<bs>" text "${text}")
    string(REPLACE ";" "<sc>" text "${text}")
    string(REPLACE "[" "<lb>" text "${text}")
    string(REPLACE "]" "<rb>" text "${text}")
    string(REPLACE "\n" ";" text "${text}")
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

# --- DESIGN.md headings ----------------------------------------------

read_lines(design_lines "${design}")
set(sections "")
set(titles "")
set(section "")
foreach(line IN LISTS design_lines)
    if(line MATCHES "^## §([0-9]+) ")
        set(section "${CMAKE_MATCH_1}")
        list(APPEND sections "${section}")
    elseif(line MATCHES "^### (.+)$")
        list(APPEND titles "${section}|${CMAKE_MATCH_1}")
    endif()
endforeach()

# --- Section citations -----------------------------------------------

file(GLOB_RECURSE cited_files
    "${ROOT}/src/*" "${ROOT}/tests/*" "${ROOT}/bench/*"
    "${ROOT}/tools/*" "${ROOT}/examples/*")
list(APPEND cited_files "${ROOT}/README.md"
    "${ROOT}/.claude/skills/verify/SKILL.md" "${design}")

foreach(path IN LISTS cited_files)
    if(NOT EXISTS "${path}")
        continue()
    endif()
    file(READ "${path}" text)
    string(FIND "${text}" "§" has_section)
    if(has_section EQUAL -1)
        continue()
    endif()
    file(RELATIVE_PATH rel "${ROOT}" "${path}")
    read_lines(lines "${path}")
    set(number 0)
    set(pending "")
    foreach(line IN LISTS lines)
        math(EXPR number "${number} + 1")
        # A title that wrapped: join this line, comment markers
        # stripped, to the unclosed citation of the line before.
        if(NOT "${pending}" STREQUAL "")
            string(REGEX MATCH "^[ \t]*(\\*|//|#)?[ \t]*(.*)$" rest
                "${line}")
            set(text "${pending} ${CMAKE_MATCH_2}")
            set(where "${rel}:${pending_line}")
            set(pending "")
        else()
            set(text "${line}")
            set(where "${rel}:${number}")
        endif()
        if(text MATCHES "§([0-9]+),? \"([^\"]*)(\"?)")
            if("${CMAKE_MATCH_3}" STREQUAL "")
                set(pending "${text}")
                set(pending_line "${number}")
                continue()
            endif()
            set(cited "${CMAKE_MATCH_1}|${CMAKE_MATCH_2}")
            if(NOT cited IN_LIST titles)
                fail("${where}" "no `### ${CMAKE_MATCH_2}` in DESIGN.md §${CMAKE_MATCH_1}")
            endif()
        endif()
        if(path STREQUAL design OR text MATCHES "DESIGN")
            string(REGEX MATCHALL "§[0-9]+" numbers "${text}")
            foreach(cited IN LISTS numbers)
                string(SUBSTRING "${cited}" 2 -1 cited)
                if(NOT cited IN_LIST sections)
                    fail("${where}" "no `## §${cited}` in DESIGN.md")
                endif()
            endforeach()
        endif()
    endforeach()
endforeach()

# --- Files DESIGN.md names ---------------------------------------------

file(GLOB_RECURSE repo_sources RELATIVE "${ROOT}"
    "${ROOT}/src/*" "${ROOT}/tests/*" "${ROOT}/bench/*"
    "${ROOT}/tools/*" "${ROOT}/examples/*" "${ROOT}/perf/*")

function(path_exists out name)
    set(found FALSE)
    if(name MATCHES "/")
        foreach(candidate "${name}" "src/${name}" "${name}.cpp"
                "src/${name}.hh" "${name}.hh")
            if(EXISTS "${ROOT}/${candidate}")
                set(found TRUE)
            endif()
        endforeach()
    else()
        foreach(source IN LISTS repo_sources)
            if(source MATCHES "(^|/)${name}$")
                set(found TRUE)
                break()
            endif()
        endforeach()
    endif()
    set(${out} ${found} PARENT_SCOPE)
endfunction()

# --- Tests DESIGN.md names ---------------------------------------------

set(test_ids "")
set(test_suites "")
file(GLOB test_sources "${ROOT}/tests/*.cpp")
foreach(source IN LISTS test_sources)
    file(READ "${source}" text)
    string(REGEX MATCHALL
        "TEST(_F|_P)?\\([ \t\n]*[A-Za-z0-9_]+,[ \t\n]*[A-Za-z0-9_]+\\)"
        found "${text}")
    foreach(test IN LISTS found)
        string(REGEX REPLACE
            "^TEST(_F|_P)?\\([ \t\n]*([A-Za-z0-9_]+),[ \t\n]*([A-Za-z0-9_]+)\\)$"
            "\\2.\\3" id "${test}")
        list(APPEND test_ids "${id}")
        string(REGEX REPLACE "\\..*" "" suite "${id}")
        list(APPEND test_suites "${suite}")
    endforeach()
endforeach()
set(benchmarks "")
file(GLOB bench_sources "${ROOT}/bench/*.cpp")
foreach(source IN LISTS bench_sources)
    file(READ "${source}" text)
    string(REGEX MATCHALL "BENCHMARK\\(BM_[A-Za-z0-9_]+" found "${text}")
    foreach(entry IN LISTS found)
        string(SUBSTRING "${entry}" 10 -1 entry)
        list(APPEND benchmarks "${entry}")
    endforeach()
endforeach()
file(STRINGS "${ROOT}/bench/bench_pins.txt" pin_lines REGEX "^[a-z]")
set(pinned "")
foreach(pin IN LISTS pin_lines)
    string(REGEX REPLACE " .*" "" pin "${pin}")
    list(APPEND pinned "${pin}")
endforeach()

set(number 0)
foreach(line IN LISTS design_lines)
    math(EXPR number "${number} + 1")
    set(where "DESIGN.md:${number}")

    string(REGEX MATCHALL "[A-Za-z0-9_./-]*[A-Za-z0-9_]\\.(cc|hh|cpp)"
        names "${line}")
    string(REGEX MATCHALL "`[A-Za-z0-9_.-]+/[A-Za-z0-9_./-]*`" paths
        "${line}")
    foreach(path IN LISTS paths)
        string(REPLACE "`" "" path "${path}")
        string(REGEX REPLACE "/.*" "" top "${path}")
        if(IS_DIRECTORY "${ROOT}/${top}" OR
           IS_DIRECTORY "${ROOT}/src/${top}")
            list(APPEND names "${path}")
        endif()
    endforeach()
    list(REMOVE_DUPLICATES names)
    foreach(name IN LISTS names)
        path_exists(found "${name}")
        if(NOT found)
            fail("${where}" "no file ${name}")
        endif()
    endforeach()

    string(REGEX MATCHALL "`[A-Za-z0-9_.]+`" tokens "${line}")
    foreach(token IN LISTS tokens)
        string(REPLACE "`" "" token "${token}")
        if(token MATCHES "^[A-Z][A-Za-z0-9_]*\\.[A-Z][A-Za-z0-9_]*$")
            if(NOT token IN_LIST test_ids)
                fail("${where}" "no test ${token} in tests/")
            endif()
        elseif(token MATCHES "^[A-Z][A-Za-z0-9]*(Test|Property|Matrix)$")
            if(NOT token IN_LIST test_suites)
                fail("${where}" "no test suite ${token} in tests/")
            endif()
        elseif(token MATCHES "^BM_")
            if(NOT token IN_LIST benchmarks)
                fail("${where}" "no BENCHMARK(${token}) in bench/")
            endif()
        elseif(token MATCHES "^test_[a-z_]+$")
            if(NOT EXISTS "${ROOT}/tests/${token}.cpp")
                fail("${where}" "no tests/${token}.cpp")
            endif()
        elseif(token MATCHES "^bench_pin_([a-z0-9_]+)$")
            if(NOT CMAKE_MATCH_1 IN_LIST pinned)
                fail("${where}" "${CMAKE_MATCH_1} has no line in bench/bench_pins.txt")
            endif()
        endif()
    endforeach()
endforeach()

if(error_count GREATER 0)
    string(REPLACE "<bs>" "\\" errors "${errors}")
    string(REPLACE "<sc>" ";" errors "${errors}")
    string(REPLACE "<lb>" "[" errors "${errors}")
    string(REPLACE "<rb>" "]" errors "${errors}")
    message(FATAL_ERROR
        "${error_count} broken documentation reference(s):\n${errors}")
endif()
list(LENGTH sections section_count)
list(LENGTH titles title_count)
message(STATUS "doc_refs: ${section_count} sections, ${title_count} "
    "subsections; every citation, file and test resolves")
