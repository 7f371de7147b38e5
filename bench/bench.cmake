# Figure/table reproduction benches. Defined via include() from the
# top-level CMakeLists so build/bench/ contains only the executables
# (the evaluation harness runs every file in that directory).

add_library(charllm_benchutil STATIC ${CMAKE_SOURCE_DIR}/bench/bench_util.cc)
target_include_directories(charllm_benchutil PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(charllm_benchutil PUBLIC charllm_core charllm_scale)

# `<bench> FLAG` must exit RC with output matching REGEX (the output is
# echoed only on exit code RC). The short timeout fails a bench that
# ignores argv and starts its sweep.
function(charllm_add_flag_test name suffix flag rc regex)
    add_test(NAME ${name}.${suffix} COMMAND sh -c
        "out=$(\"$0\" ${flag} 2>&1); test $? -eq ${rc} && echo \"$out\""
        $<TARGET_FILE:${name}>)
    set_tests_properties(${name}.${suffix} PROPERTIES
        PASS_REGULAR_EXPRESSION "${regex}" TIMEOUT 10)
endfunction()

function(charllm_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE charllm_benchutil)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
    charllm_add_flag_test(${name} help --help 0 "usage:")
    charllm_add_flag_test(${name} bogus_flag --bogus 2 "unknown argument")
endfunction()

charllm_add_bench(bench_table1_models)
charllm_add_bench(bench_table2_techniques)
charllm_add_bench(bench_table3_clusters)
charllm_add_bench(bench_fig02_scaleup_vs_scaleout)
charllm_add_bench(bench_fig03_kernel_time)
charllm_add_bench(bench_fig04_power_thermal_freq)
charllm_add_bench(bench_fig05_traffic_heatmap)
charllm_add_bench(bench_fig06_pcie_timeseries)
charllm_add_bench(bench_fig07_recompute_breakdown)
charllm_add_bench(bench_fig08_one_gpu_per_node)
charllm_add_bench(bench_fig09_h200_optimizations)
charllm_add_bench(bench_fig10_mi250_optimizations)
charllm_add_bench(bench_fig13_h200_microbatch)
charllm_add_bench(bench_fig14_mi250_microbatch)
charllm_add_bench(bench_fig11_cc_overlap_ranks)
charllm_add_bench(bench_fig12_lora)
charllm_add_bench(bench_fig15_microbatch_breakdown)
charllm_add_bench(bench_fig16_airflow_layout)
charllm_add_bench(bench_fig17_h200_thermal_heatmap)
charllm_add_bench(bench_fig18_mi250_thermal_heatmap)
charllm_add_bench(bench_fig19_thermal_timeseries)
charllm_add_bench(bench_fig20_throttle_metrics)
charllm_add_bench(bench_fig21_thermal_placement)
charllm_add_bench(bench_fig22_datacenter_projection)
# The artifact path is opened before the first mechanistic run.
charllm_add_flag_test(bench_fig22_datacenter_projection unwritable_out
    "--symmetry=on --out=/nonexistent_dir/x.json" 2 "failed to write")
charllm_add_bench(bench_fig23_inference)
charllm_add_bench(bench_backend_xval)

charllm_add_bench(bench_ablation_topology)
charllm_add_bench(bench_ablation_airflow)
charllm_add_bench(bench_ablation_straggler)
charllm_add_bench(bench_ablation_faults)
# core::validate refuses a fault scenario on the analytical backend.
charllm_add_flag_test(bench_ablation_faults analytical_refused
    --backend=analytical 2 "needs the DES backend")
charllm_add_bench(bench_ablation_interleaved)
charllm_add_bench(bench_ablation_chunking)
charllm_add_bench(bench_ablation_resilience)
charllm_add_bench(bench_ablation_elastic)

# Golden stdout (tools/golden.py against bench/golden/<bench>.txt): one
# `<bench>.golden` row per bench that runs in under ~1 s at default
# flags on a 4-core host. CI's release job checks all of them.
find_package(Python3 COMPONENTS Interpreter QUIET)
if(Python3_Interpreter_FOUND)
    foreach(name IN ITEMS
            bench_table1_models bench_table2_techniques bench_table3_clusters
            bench_fig03_kernel_time bench_fig05_traffic_heatmap
            bench_fig06_pcie_timeseries bench_fig07_recompute_breakdown
            bench_fig08_one_gpu_per_node bench_fig11_cc_overlap_ranks
            bench_fig12_lora bench_fig13_h200_microbatch
            bench_fig14_mi250_microbatch bench_fig15_microbatch_breakdown
            bench_fig16_airflow_layout bench_fig17_h200_thermal_heatmap
            bench_fig18_mi250_thermal_heatmap bench_fig19_thermal_timeseries
            bench_fig20_throttle_metrics bench_fig21_thermal_placement
            bench_fig22_datacenter_projection bench_fig23_inference
            bench_ablation_topology bench_ablation_airflow
            bench_ablation_straggler bench_ablation_faults
            bench_ablation_interleaved bench_ablation_chunking)
        add_test(NAME ${name}.golden
            COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/golden.py
                    --check --build ${CMAKE_BINARY_DIR} ${name})
        set_tests_properties(${name}.golden PROPERTIES TIMEOUT 60)
    endforeach()
endif()
