/**
 * @file
 * Regenerates paper Figure 16: airflow and cooling layout of the
 * evaluated server nodes. The paper's figure is a schematic; here we
 * print the simulator's chassis model — airflow rows, upstream
 * coupling, package pairing — plus the steady-state inlet and
 * junction temperatures it implies under a uniform full load, which
 * is the quantitative content the thermal results build on.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"
#include "hw/calibration.hh"
#include "hw/thermal_model.hh"

using namespace charllm;

namespace {

void
describe(const core::ClusterSpec& cluster, double load_watts)
{
    const auto& chassis = cluster.chassis;
    std::printf("=== %s node (%s) ===\n", cluster.gpu.name.c_str(),
                chassis.name.c_str());
    hw::ThermalModel tm(chassis, 1, cluster.gpu.thermalResistance);
    std::vector<Watts> powers(
        static_cast<std::size_t>(chassis.gpusPerNode()),
        Watts(load_watts));
    TextTable t({"slot", "airflow row", "pkg peer", "upstream slots",
                 "inlet(C)", "steady junction(C)"});
    for (int i = 0; i < chassis.gpusPerNode(); ++i) {
        const auto& slot = chassis.slots[static_cast<std::size_t>(i)];
        std::string upstream;
        for (const auto& [up, w] : slot.upstream) {
            if (!upstream.empty())
                upstream += ",";
            upstream += strprintf("%d(x%.2f)", up, w);
        }
        t.addRow({std::to_string(i),
                  slot.airflowRow == 0 ? "intake" : "exhaust",
                  slot.packagePeer >= 0
                      ? std::to_string(slot.packagePeer)
                      : std::string("-"),
                  upstream.empty() ? "-" : upstream,
                  formatFixed(tm.inletTemperature(i, powers).value(),
                              1),
                  formatFixed(tm.steadyState(i, powers).value(), 1)});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char** argv)
{
    // Nothing is simulated: flags are parsed for --help/strictness.
    benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 16",
                      "Airflow and cooling layout of the evaluated "
                      "nodes");
    describe(core::h200Cluster(), 650.0);
    describe(core::mi250Cluster(), 230.0);
    std::printf(
        "Front-to-back airflow preheats exhaust-row inlets by the\n"
        "upstream devices' power (coefficient %.4f degC/W); MI250\n"
        "packages couple their two GCDs, with the downstream GCD on a\n"
        "disadvantaged heatsink position.\n",
        hw::calib::kPreheatCoeffCPerW);
    return 0;
}
