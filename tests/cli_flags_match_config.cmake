# A run given by flags must print the same JSON as the same run given
# by a config file: `train --json` and `infer --json`, both at fp8,
# where the activation bytes and the KV-cache precision follow the
# precision.
#
#   cmake -DCLI=<optimus_cli> -P cli_flags_match_config.cmake

function(cli_json out)
    execute_process(COMMAND ${CLI} ${ARGN} --json
                    OUTPUT_VARIABLE json RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "optimus_cli ${ARGN} exited ${rc}")
    endif()
    set(${out} "${json}" PARENT_SCOPE)
endfunction()

function(expect_same what flags config)
    if(NOT flags STREQUAL config)
        message(FATAL_ERROR "${what} differs between flags and config\n"
                            "flags:\n${flags}\nconfig:\n${config}")
    endif()
endfunction()

# Training: gpt-7b on one DGX-H100 at TP 4 (DP 2 fills the node).
file(WRITE flags_match_train.json [=[
{
  "model": {"preset": "gpt-7b"},
  "system": {"preset": "dgx-h100", "numNodes": 1},
  "parallel": {"dataParallel": 2, "tensorParallel": 4},
  "training": {"precision": "fp8", "recompute": "selective"}
}
]=])
cli_json(train_flags train --model gpt-7b --system dgx-h100 --tp 4
         --batch 16 --precision fp8 --recompute selective)
cli_json(train_config train flags_match_train.json --batch 16)
expect_same("train --json" "${train_flags}" "${train_config}")

# Inference: llama2-13b on one DGX-H100, the KV cache at fp8 too.
file(WRITE flags_match_infer.json [=[
{
  "model": {"preset": "llama2-13b"},
  "system": {"preset": "dgx-h100", "numNodes": 1},
  "inference": {"precision": "fp8"}
}
]=])
cli_json(infer_flags infer --model llama2-13b --system dgx-h100
         --precision fp8)
cli_json(infer_config infer flags_match_infer.json)
expect_same("infer --json" "${infer_flags}" "${infer_config}")

message(STATUS "train and infer at fp8: flags match config")
