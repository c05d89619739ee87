# `plan` and `memory` read the run that `train` reads:
#
#  - `plan` on a config with an fp8, seq-4096 training section prints
#    the same plans as the same run given by flags;
#  - `plan --zero 0` searches ZeRO 0 once, so no plan is listed twice;
#  - the full-recompute row of `memory` is the memory `train --json`
#    reports for the same flags (DP fills the system in both).
#
#   cmake -DCLI=<optimus_cli> -P cli_plan_memory_read_run.cmake

function(cli out)
    execute_process(COMMAND ${CLI} ${ARGN}
                    OUTPUT_VARIABLE text RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "optimus_cli ${ARGN} exited ${rc}")
    endif()
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

# plan: config vs flags.
file(WRITE plan_reads_training.json [=[
{
  "model": {"preset": "gpt-7b"},
  "system": {"preset": "dgx-h100", "numNodes": 2},
  "training": {"precision": "fp8", "seqLength": 4096}
}
]=])
cli(plan_config plan plan_reads_training.json)
cli(plan_flags plan --model gpt-7b --system dgx-h100 --nodes 2
    --precision fp8 --seq 4096)
if(NOT plan_config STREQUAL plan_flags)
    message(FATAL_ERROR "plan differs between config and flags\n"
                        "config:\n${plan_config}\nflags:\n${plan_flags}")
endif()

# plan --zero 0: every listed plan is distinct.
cli(plan_zero0 plan --model gpt-7b --zero 0 --top 1000)
string(REGEX MATCHALL "[^\n]+" rows "${plan_zero0}")
list(LENGTH rows listed)
list(REMOVE_DUPLICATES rows)
list(LENGTH rows distinct)
if(NOT listed EQUAL distinct)
    message(FATAL_ERROR "plan --zero 0 lists a plan twice:\n${plan_zero0}")
endif()

# memory vs train: the full row, in GiB to the 2 decimals memory prints.
set(run --model gpt-7b --tp 4 --zero 1)
cli(memory memory ${run})
cli(train train ${run} --json)
set(col " +([0-9.]+)")
string(REGEX MATCH "\nfull${col}${col}${col}${col}${col}" row "${memory}")
if(NOT row)
    message(FATAL_ERROR "no full-recompute row in:\n${memory}")
endif()
set(printed ${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3}
            ${CMAKE_MATCH_4} ${CMAKE_MATCH_5})
foreach(part weights gradients optimizer activations total)
    list(POP_FRONT printed gib)
    string(JSON bytes GET "${train}" memory ${part})
    # Round bytes / GiB to 2 decimals in integer arithmetic.
    math(EXPR centi "(${bytes} * 100 + 536870912) / 1073741824")
    math(EXPR whole "${centi} / 100")
    math(EXPR frac "${centi} % 100")
    if(frac LESS 10)
        set(frac "0${frac}")
    endif()
    if(NOT "${whole}.${frac}" STREQUAL gib)
        message(FATAL_ERROR "memory ${part} ${gib} GiB, "
                            "train ${whole}.${frac} GiB\n${memory}")
    endif()
endforeach()

message(STATUS "plan and memory read the run train reads")
