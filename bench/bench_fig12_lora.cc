/**
 * @file
 * Regenerates paper Figure 12: GPU temperature, power, and frequency
 * during LoRA fine-tuning on the H200 cluster, across parallelism
 * strategies, compared against full-model training.
 *
 * Expected shape: LoRA improves step time and energy per token
 * (lighter backward, negligible gradient sync and optimizer), lowers
 * average power/temperature, and preserves the relative ordering of
 * parallelism strategies seen in pretraining.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 12",
                      "LoRA fine-tuning vs full training (H200)");

    auto cluster = core::h200Cluster();
    auto full = model::llama3_70b();
    auto lora = model::withLora(model::llama3_70b(), 16);

    std::vector<core::ExperimentConfig> configs;
    for (const auto& m : {full, lora}) {
        for (const auto& par : core::paperConfigs(full, cluster)) {
            if (par.fsdp)
                continue;
            auto cfg = sweepConfig(cluster, m, par);
            if (!core::Experiment::fits(cfg))
                cfg.train.actRecompute = true;
            configs.push_back(cfg);
        }
    }
    benchutil::printSystemMetrics(benchutil::runSweep(configs, flags));
    std::printf(
        "\nExpected: LoRA rows beat their full-training counterparts\n"
        "in normalized efficiency at lower average power; trends\n"
        "across parallelism strategies mirror pretraining. (The\n"
        "paper's >10x efficiency figure additionally reflects its\n"
        "fine-tuning workload normalization; see EXPERIMENTS.md.)\n");
    return 0;
}
