/**
 * @file
 * Regenerates paper Table 3: hardware specifications of the evaluated
 * GPU clusters, as instantiated by the simulator's presets.
 */

#include "bench_util.hh"
#include "common/strings.hh"
#include "common/units.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    // Nothing is simulated: flags are parsed for --help/strictness.
    benchutil::sweepFlags(argc, argv);
    benchutil::banner("Table 3",
                      "Hardware specifications of evaluated clusters");

    auto clusters = {core::h200Cluster(), core::h100Cluster(),
                     core::mi250Cluster()};
    TextTable t({"Specification", "HGX H200", "HGX H100", "MI250"});

    auto row = [&](const std::string& name, auto getter) {
        std::vector<std::string> cells = {name};
        for (const auto& c : clusters)
            cells.push_back(getter(c));
        t.addRow(cells);
    };

    using CS = core::ClusterSpec;
    row("GPU model", [](const CS& c) { return c.gpu.name; });
    row("Architecture", [](const CS& c) {
        return c.gpu.arch == hw::GpuArch::Hopper ? "Hopper" : "CDNA2";
    });
    row("Memory per GPU", [](const CS& c) {
        return strprintf("%.0f GB", c.gpu.memoryBytes.value() / 1e9);
    });
    row("Peak FP16/BF16", [](const CS& c) {
        return strprintf("%.2f PFLOPS", c.gpu.peakFlops.value() / 1e15);
    });
    row("HBM bandwidth", [](const CS& c) {
        return strprintf("%.2f TB/s",
                         c.gpu.hbmBandwidth.value() / 1e12);
    });
    row("GPUs per node", [](const CS& c) {
        return std::to_string(c.network.gpusPerNode) +
               (c.network.chiplet ? " (4x2 GCDs)" : "");
    });
    row("Number of nodes", [](const CS& c) {
        return std::to_string(c.numNodes);
    });
    row("Intra-node fabric", [](const CS& c) {
        return c.network.chiplet ? "xGMI" : "NVLink";
    });
    row("Intra-node BW/GPU", [](const CS& c) {
        BytesPerSec bw = c.network.chiplet ? c.network.xgmiPortBw
                                           : c.network.nvlinkBw;
        return strprintf("%.0f GB/s", bw.value() / 1e9);
    });
    row("Inter-node fabric", [](const CS& c) {
        return strprintf("%.0f Gbps IB (shared/node)",
                         c.network.nicBw.value() * 8.0 / 1e9);
    });
    row("GPU TDP", [](const CS& c) {
        return strprintf("%.0f W%s", c.gpu.tdpWatts.value(),
                         c.gpu.chipletGcd ? " /GCD (500 W pkg)" : "");
    });
    t.print();
    return 0;
}
