# `optimus_cli` rejects input it would otherwise silently ignore, with
# a non-zero exit and a message naming what is wrong:
#
#  - a config file whose top level is not a JSON object;
#  - a flag that no command reads (`--ppp` for `--pp`, or the removed
#    `dse --gpus-per-node`);
#  - a config field or member that no reader names (`tensorParalel`
#    in `parallel`, a top-level `trainig`): `lint` reports it as
#    OPT-CFG-025.
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

file(WRITE cli_rejects_field.json
     "{\"model\": {\"preset\": \"gpt-175b\"},
       \"system\": {\"preset\": \"dgx-a100\"},
       \"parallel\": {\"dataParallel\": 1, \"tensorParalel\": 8,
                      \"pipelineParallel\": 8}}\n")
file(WRITE cli_rejects_member.json
     "{\"model\": {\"preset\": \"gpt-7b\"},
       \"system\": {\"preset\": \"dgx-a100\"},
       \"trainig\": {\"zeroStage\": 3}}\n")
foreach(case "field;tensorParalel" "member;trainig")
    list(GET case 0 kind)
    list(GET case 1 key)
    expect_rejected("OPT-CFG-025.*${key}" train cli_rejects_${kind}.json)
    execute_process(COMMAND ${CLI} lint cli_rejects_${kind}.json
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1 OR NOT out MATCHES "OPT-CFG-025")
        message(FATAL_ERROR "lint cli_rejects_${kind}.json exited ${rc}, "
                            "expected 1 and OPT-CFG-025:\n${out}")
    endif()
endforeach()
