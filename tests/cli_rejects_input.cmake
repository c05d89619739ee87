# `optimus_cli` rejects input it would otherwise silently ignore, with
# a non-zero exit and a message naming what is wrong:
#
#  - a config file whose top level is not a JSON object;
#  - a flag that no command reads (`--ppp` for `--pp`, or the removed
#    `dse --gpus-per-node`).
#
#   cmake -DCLI=<optimus_cli> -P cli_rejects_input.cmake

function(expect_rejected pattern)
    execute_process(COMMAND ${CLI} ${ARGN}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    set(args ${ARGN})
    list(JOIN args " " command)
    if(rc EQUAL 0)
        message(FATAL_ERROR "optimus_cli ${command} exited 0\n${out}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "optimus_cli ${command}: expected "
                            "'${pattern}', got:\n${err}")
    endif()
endfunction()

file(WRITE cli_rejects_array.json "[1]\n")
expect_rejected("config file cli_rejects_array.json is not a JSON object"
                train cli_rejects_array.json)
expect_rejected("unknown flag --ppp" train --tp 8 --ppp 8)
expect_rejected("unknown flag --gpus-per-node"
                dse --gpus-per-node 4 --grid 2 --rounds 1)
