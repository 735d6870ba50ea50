# Figure-reproduction benches.  Included from the top-level CMakeLists so
# ${CMAKE_BINARY_DIR}/bench holds only the executables.
set(MPIB_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

function(mpib_add_bench name)
  add_executable(${name} ${MPIB_BENCH_DIR}/${name}.cpp)
  target_include_directories(${name} PRIVATE ${MPIB_BENCH_DIR})
  target_link_libraries(${name} PRIVATE mpib_nas)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mpib_add_bench(tab_raw_verbs)
mpib_add_bench(fig04_05_basic)
mpib_add_bench(fig06_07_piggyback)
mpib_add_bench(fig08_pipeline)
mpib_add_bench(fig09_chunk_sweep)
mpib_add_bench(fig11_zerocopy)
mpib_add_bench(fig13_14_ch3_vs_rdma)
mpib_add_bench(fig15_verbs_read_write)
mpib_add_bench(fig16_nas_a4)
mpib_add_bench(fig17_nas_b8)
mpib_add_bench(abl_adaptive)
mpib_add_bench(abl_integrity)
mpib_add_bench(abl_multirail)
mpib_add_bench(abl_regcache)
mpib_add_bench(abl_tail_update)
mpib_add_bench(abl_threshold)
mpib_add_bench(ext_scalability)
mpib_add_bench(ext_onesided)
mpib_add_bench(ext_rma)
mpib_add_bench(ext_rdma_coll)
mpib_add_bench(ext_multimethod)
mpib_add_bench(nas_profile)
mpib_add_bench(nas_fault)

# Bench smokes under the `perf` ctest label: the key perf benches run
# end-to-end with reduced sweeps (--smoke), so a bandwidth or latency
# regression surfaces from `ctest -L perf` without the full figure runs.
# Figure 16 runs whole (a few seconds): its table is all eight NAS kernels
# on the three stacks, with their verification.
add_test(NAME perf.smoke.abl_adaptive
         COMMAND abl_adaptive --smoke)
add_test(NAME perf.smoke.fig13_14_ch3_vs_rdma
         COMMAND fig13_14_ch3_vs_rdma --smoke)
add_test(NAME perf.smoke.abl_integrity
         COMMAND abl_integrity --smoke)
add_test(NAME perf.smoke.abl_multirail
         COMMAND abl_multirail --smoke)
add_test(NAME perf.smoke.nas_fault
         COMMAND nas_fault --smoke)
add_test(NAME perf.smoke.nas_grayfault
         COMMAND nas_fault --smoke --gray)
add_test(NAME perf.smoke.ext_scalability
         COMMAND ext_scalability --smoke)
add_test(NAME perf.smoke.ext_onesided
         COMMAND ext_onesided --smoke)
add_test(NAME perf.smoke.ext_rma
         COMMAND ext_rma --smoke)
add_test(NAME perf.smoke.fig16_nas_a4
         COMMAND fig16_nas_a4)
set_tests_properties(perf.smoke.abl_adaptive perf.smoke.fig13_14_ch3_vs_rdma
                     perf.smoke.abl_integrity perf.smoke.abl_multirail
                     perf.smoke.nas_fault perf.smoke.nas_grayfault
                     perf.smoke.ext_scalability
                     perf.smoke.ext_onesided perf.smoke.ext_rma
                     perf.smoke.fig16_nas_a4
  PROPERTIES LABELS perf
             WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
