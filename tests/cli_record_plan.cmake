# `record --mode plan` must record the plan that `plan` ranks first for
# the same config and flags: its time per batch (to the 2 decimals
# `plan` prints), its ZeRO stage, and flash attention. The config has
# no training section, so the training flags set the run.
#
#   cmake -DCLI=<optimus_cli> -DCONFIG=<config.json> -P cli_record_plan.cmake

set(flags --zero 1 --flash-attention)

execute_process(COMMAND ${CLI} plan ${CONFIG} ${flags}
                OUTPUT_VARIABLE plan RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "plan exited ${rc}")
endif()
# The first ranked row ends: ZeRO, t/batch (s), MFU (%), Mem/GPU (GiB).
string(REGEX MATCH " ([0-3]) +([0-9]+)\\.([0-9][0-9]) +[0-9.]+ +[0-9.]+\n"
       row "${plan}")
if(NOT row)
    message(FATAL_ERROR "no ranked plan in:\n${plan}")
endif()
set(plan_zero ${CMAKE_MATCH_1})
math(EXPR plan_millis "${CMAKE_MATCH_2} * 1000 + ${CMAKE_MATCH_3} * 10")

execute_process(COMMAND ${CLI} record --mode plan ${CONFIG} ${flags}
                        --out record_plan.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "record exited ${rc}")
endif()
file(READ record_plan.json rec)
string(JSON time GET "${rec}" metrics best/time-per-batch)
string(JSON zero GET "${rec}" attrs best/zero)
string(JSON flash GET "${rec}" config training flashAttention)

string(REGEX MATCH "^([0-9]+)\\.([0-9]*)" _ "${time}")
string(SUBSTRING "${CMAKE_MATCH_2}000" 0 3 frac)
math(EXPR delta "${CMAKE_MATCH_1} * 1000 + ${frac} - ${plan_millis}")
if(delta GREATER 5 OR delta LESS -5)
    message(FATAL_ERROR "record best time ${time} s, plan prints "
                        "${plan_millis} ms")
endif()
if(NOT zero STREQUAL plan_zero)
    message(FATAL_ERROR "record best ZeRO stage ${zero}, plan ${plan_zero}")
endif()
if(NOT flash)
    message(FATAL_ERROR "record planned without flash attention")
endif()
message(STATUS "record --mode plan: ${time} s, ZeRO ${zero}, flash ${flash}")
