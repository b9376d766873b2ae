# Included after the top-level project() call when the top-level project is
# configured with -DCMAKE_PROJECT_INCLUDE=<this file>, as run.py does. Once
# the top-level CMakeLists.txt has run, it includes bench/e2e's, so bench_e2e
# gets every option and setting that file makes, as an add_subdirectory(e2e)
# line in bench/CMakeLists.txt would; with that line present it does nothing.
# (A deferred call may not add a subdirectory, so it includes the file.)
set(DUALSIM_BENCH_E2E_LISTS ${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt)
function(dualsim_add_bench_e2e)
  if(NOT TARGET bench_e2e)
    include(${DUALSIM_BENCH_E2E_LISTS})
  endif()
endfunction()
cmake_language(DEFER CALL dualsim_add_bench_e2e)
