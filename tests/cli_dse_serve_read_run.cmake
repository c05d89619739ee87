# `dse`, `record --mode dse` and `serve` read the run that `train` and
# `infer` read:
#
#  - `dse` on the training example prints what its flag-only twin
#    prints;
#  - the objective of `record --mode dse` is the config `record`
#    writes for the same run;
#  - `serve`'s batch-1 time to first token is `infer`'s prefill time
#    on the same config, with flash attention off and with the ring
#    collective algorithm.
#
#   cmake -DCLI=<optimus_cli> -DCONFIG=<train example> \
#       -P cli_dse_serve_read_run.cmake

function(cli out)
    execute_process(COMMAND ${CLI} ${ARGN}
                    OUTPUT_VARIABLE text RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "optimus_cli ${ARGN} exited ${rc}")
    endif()
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

# dse: config vs flags.
set(search --grid 2 --rounds 1)
cli(dse_config dse ${CONFIG} ${search})
cli(dse_flags dse --model gpt-175b --system dgx-a100 --nodes 8 --tp 8
    --pp 8 --sp --recompute selective ${search})
if(NOT dse_config STREQUAL dse_flags)
    message(FATAL_ERROR "dse differs between config and flags\n"
                        "config:\n${dse_config}\nflags:\n${dse_flags}")
endif()

# record --mode dse: its objective is the run's record config.
cli(ignored record ${CONFIG} --out dse_read_run_train.json)
cli(ignored record --mode dse ${CONFIG} ${search}
    --out dse_read_run_dse.json)
file(READ dse_read_run_train.json train_record)
file(READ dse_read_run_dse.json dse_record)
string(JSON run_config GET "${train_record}" config)
string(JSON objective GET "${dse_record}" config objective)
string(JSON same EQUAL "${run_config}" "${objective}")
if(NOT same)
    message(FATAL_ERROR "record --mode dse objective is not the run's "
                        "config\nobjective:\n${objective}\n"
                        "config:\n${run_config}")
endif()

# A decimal <int>.<digits> times 10^places, truncated to an integer.
function(scaled out decimal places)
    if(NOT decimal MATCHES "^([0-9]+)\\.([0-9]+)$")
        message(FATAL_ERROR "not a plain decimal: ${decimal}")
    endif()
    string(REPEAT "0" ${places} zeros)
    string(SUBSTRING "${CMAKE_MATCH_2}${zeros}" 0 ${places} frac)
    # The leading 1 keeps a fraction like 08 from reading as octal.
    math(EXPR value "${CMAKE_MATCH_1} * 1${zeros} + 1${frac} - 1${zeros}")
    set(${out} ${value} PARENT_SCOPE)
endfunction()

# serve vs infer: Llama2-70B on one DGX-H100 at TP 4.
foreach(option "\"flashAttention\": false"
               "\"collectiveAlgorithm\": \"ring\"")
    file(WRITE serve_read_run.json "{
  \"model\": {\"preset\": \"llama2-70b\"},
  \"system\": {\"preset\": \"dgx-h100\", \"numNodes\": 1},
  \"inference\": {\"tensorParallel\": 4, \"promptLength\": 1024,
                \"generateLength\": 256, ${option}}
}
")
    cli(serve serve serve_read_run.json --max-batch 1)
    cli(infer infer serve_read_run.json --json)
    # Batch, tok/s, req/s, ms/token, TTFT (ms).
    set(col " +([0-9.]+)")
    if(NOT serve MATCHES "\n1${col}${col}${col}${col}")
        message(FATAL_ERROR "no batch-1 row in:\n${serve}")
    endif()
    # Both in hundredths of a millisecond.
    scaled(ttft "${CMAKE_MATCH_4}" 2)
    string(JSON prefill GET "${infer}" prefill time)
    scaled(prefill "${prefill}" 5)
    math(EXPR delta "${ttft} - ${prefill}")
    if(delta GREATER 10 OR delta LESS -10)
        message(FATAL_ERROR "with ${option}, serve's batch-1 TTFT is "
                            "not infer's prefill time\n${serve}\n${infer}")
    endif()
endforeach()

message(STATUS "dse and serve read the run train and infer read")
