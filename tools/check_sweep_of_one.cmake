# Sweep-of-one check, run as a ctest via cmake -P (a single add_test command
# cannot express "run two ways and compare"). Every smarthsim mode builds its
# worlds through one function, and a solo run is a one-seed sweep, so a
# closed-loop chaos run and an open-loop admission-control run must print the
# same robustness rows alone as with --sweep-seeds=1.
#
# Expects -DSMARTHSIM=<path to the binary>.

# Collects "<PROTOCOL>: <row>" for every row of every robustness table in
# `text` (solo "X robustness:" and sweep "X merged robustness:" alike).
function(robustness_rows text out_var)
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(rows "")
  set(protocol "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^([A-Z]+) (merged )?robustness:$")
      set(protocol "${CMAKE_MATCH_1}")
    elseif(protocol AND line MATCHES "^(metric +value|-+) *$")
      # table header and rule
    elseif(protocol AND
           line MATCHES "^[A-Za-z][A-Za-z /()-]*[a-z)] +[0-9.]+( / [0-9.]+)? *$")
      list(APPEND rows "${protocol}: ${line}")
    else()
      set(protocol "")
    endif()
  endforeach()
  set(${out_var} "${rows}" PARENT_SCOPE)
endfunction()

function(check_sweep_of_one name)
  set(args ${ARGN})
  execute_process(COMMAND ${SMARTHSIM} ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE solo ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: solo run exited ${rc}")
  endif()
  execute_process(COMMAND ${SMARTHSIM} ${args} --sweep-seeds=1
                  RESULT_VARIABLE rc OUTPUT_VARIABLE swept ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: --sweep-seeds=1 run exited ${rc}")
  endif()
  robustness_rows("${solo}" solo_rows)
  robustness_rows("${swept}" swept_rows)
  list(LENGTH solo_rows n)
  # Two protocols, each with at least the table's 49 fixed rows.
  if(n LESS 98)
    message(FATAL_ERROR "${name}: only ${n} robustness rows in the solo "
                        "output:\n${solo}")
  endif()
  if(NOT solo_rows STREQUAL swept_rows)
    string(REPLACE ";" "\n" solo_text "${solo_rows}")
    string(REPLACE ";" "\n" swept_text "${swept_rows}")
    message(FATAL_ERROR "${name}: robustness rows differ between the solo "
                        "run and --sweep-seeds=1\nsolo:\n${solo_text}\n"
                        "sweep:\n${swept_text}")
  endif()
endfunction()

# Throttled so the upload runs long enough for chaos to crash and slow
# nodes (the run injects faults and recovers a pipeline).
check_sweep_of_one(closed_loop_chaos --cluster=small --size-gb=0.125
                   --block-mb=8 --throttle-mbps=60
                   --chaos-rates=crash=1,failslow=2)
check_sweep_of_one(open_loop_admission --cluster=small --fidelity=block
                   --clients=4 --nn-admission-control)
