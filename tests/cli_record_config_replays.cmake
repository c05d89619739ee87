# A RunRecord's config replays the run it recorded: `record` on the
# config object of a record gives the same fingerprint and the same
# metrics. Four runs: the train example at a non-default batch, a
# flag-only training run with ZeRO and flash attention, the inference
# example, and the planner on the train example keeping 3 plans (its
# replay passes the same --mode).
#
#   cmake -DCLI=<optimus_cli> -DTRAIN=<train example>
#       -DINFER=<inference example> -P cli_record_config_replays.cmake

function(record out)
    execute_process(COMMAND ${CLI} record ${ARGN} --out ${out}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "optimus_cli record ${ARGN} exited ${rc}")
    endif()
endfunction()

set(runs "${TRAIN} --batch 32"
         "--model gpt-7b --system dgx-h100 --nodes 2 --tp 4 --pp 2 \
          --batch 32 --zero 1 --flash-attention"
         "${INFER}"
         "--mode plan ${TRAIN} --top 3")
set(i 0)
foreach(run IN LISTS runs)
    math(EXPR i "${i} + 1")
    separate_arguments(args UNIX_COMMAND "${run}")
    record(replay_${i}_first.json ${args})
    file(READ replay_${i}_first.json first)
    string(JSON config GET "${first}" config)
    file(WRITE replay_${i}_config.json "${config}\n")
    string(REGEX MATCH "--mode [a-z]+" mode "${run}")
    separate_arguments(mode)
    record(replay_${i}_second.json replay_${i}_config.json ${mode})
    file(READ replay_${i}_second.json second)

    foreach(member fingerprint metrics)
        string(JSON a GET "${first}" ${member})
        string(JSON b GET "${second}" ${member})
        if(NOT a STREQUAL b)
            message(FATAL_ERROR "the config of `record ${run}` does not "
                                "replay its ${member}\nrecorded:\n${a}\n"
                                "replayed:\n${b}")
        endif()
    endforeach()
    string(JSON fingerprint GET "${first}" fingerprint)
    message(STATUS "record ${run}: ${fingerprint} replays")
endforeach()
