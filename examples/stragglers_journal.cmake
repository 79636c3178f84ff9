# Runs `cynthiactl simulate --stragglers`, whose two launch waves are the
# CLI's one path through ClusterManager::launch and wait_all_ready instead
# of deploy(), and fails unless it exits 0 and writes the pinned journal:
# node lifecycle, provisioning and training records, byte for byte.
#
#   cmake -DCYNTHIACTL=<path> -DOUT_DIR=<dir> -P stragglers_journal.cmake
set(pinned 8ae08c287689addc338242b87f9a2d624bba9e0575ec8aa9609ca0b9545b959a)
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${CYNTHIACTL}" simulate cifar10 --workers 13 --stragglers
                        --iterations 300 --journal-out "${OUT_DIR}/stragglers.jsonl"
                RESULT_VARIABLE simulate_exit OUTPUT_QUIET)
if(NOT simulate_exit EQUAL 0)
  message(FATAL_ERROR "simulate --stragglers exited ${simulate_exit}")
endif()
file(SHA256 "${OUT_DIR}/stragglers.jsonl" actual)
if(NOT actual STREQUAL pinned)
  message(FATAL_ERROR "simulate --stragglers journal SHA256 ${actual}, pinned ${pinned}")
endif()
