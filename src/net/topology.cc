#include "net/topology.hh"

#include "common/logging.hh"
#include "common/strings.hh"
#include "net/calibration.hh"

namespace charllm {
namespace net {

using namespace unit_literals;

Topology::Params
Topology::hgxParams(int num_nodes, double nic_gbps)
{
    Params p;
    p.numNodes = num_nodes;
    p.gpusPerNode = 8;
    p.chiplet = false;
    p.nvlinkBw = 450.0_GBps;                  // NVLink4, per direction
    p.pcieBw = 64.0_GBps;                     // PCIe Gen5 x16
    p.nicBw = nic_gbps * 1.0_Gbps;            // shared per node
    p.intraLatency = Seconds(calib::kIntraNodeLatencySec);
    p.interLatency = Seconds(calib::kInterNodeLatencySec);
    return p;
}

Topology::Params
Topology::mi250Params(int num_nodes, double nic_gbps)
{
    Params p;
    p.numNodes = num_nodes;
    p.gpusPerNode = 8; // 4 packages x 2 GCDs
    p.chiplet = true;
    p.xgmiPackageBw = 300.0_GBps;             // in-package GCD pair
    p.xgmiPortBw = 100.0_GBps;                // cross-package per GCD
    p.pcieBw = 32.0_GBps;                     // PCIe Gen4 x16
    p.nicBw = nic_gbps * 1.0_Gbps;
    p.intraLatency = Seconds(calib::kIntraNodeLatencySec * 1.2);
    p.interLatency = Seconds(calib::kInterNodeLatencySec);
    return p;
}

Topology::Params
Topology::oneGpuPerNode(Params base, int num_nodes)
{
    base.numNodes = num_nodes;
    base.gpusPerNode = 1;
    return base;
}

int
Topology::linkCount(const Params& p)
{
    // Per GPU: a scale-up pair (multi-GPU nodes) and a PCIe pair; per
    // node: a NIC pair; per chiplet package: one pair link.
    int gpus = p.numNodes * p.gpusPerNode;
    return gpus * (p.gpusPerNode > 1 ? 4 : 2) + 2 * p.numNodes +
           (p.chiplet ? gpus / 2 : 0);
}

LinkId
Topology::addLink(const std::string& name, BytesPerSec capacity,
                  hw::TrafficClass cls, int owner_gpu)
{
    LinkSpec spec;
    spec.name = name;
    spec.capacity = capacity;
    spec.cls = cls;
    spec.ownerGpu = owner_gpu;
    linkSpecs.push_back(std::move(spec));
    return static_cast<LinkId>(linkSpecs.size() - 1);
}

Topology::Topology(const Params& params) : cfg(params)
{
    CHARLLM_ASSERT(cfg.numNodes >= 1 && cfg.gpusPerNode >= 1,
                   "topology needs at least one GPU");
    int n = numGpus();
    scaleUpOut.resize(n, -1);
    scaleUpIn.resize(n, -1);
    pcieOut.resize(n, -1);
    pcieIn.resize(n, -1);
    nicOut.resize(cfg.numNodes, -1);
    nicIn.resize(cfg.numNodes, -1);

    hw::TrafficClass up_cls = intraClass();
    BytesPerSec port_bw = cfg.chiplet ? cfg.xgmiPortBw : cfg.nvlinkBw;

    for (int g = 0; g < n; ++g) {
        if (cfg.gpusPerNode > 1) {
            scaleUpOut[g] = addLink(
                strprintf("gpu%d.%s.out", g,
                          cfg.chiplet ? "xgmi" : "nvlink"),
                port_bw, up_cls, g);
            scaleUpIn[g] = addLink(
                strprintf("gpu%d.%s.in", g,
                          cfg.chiplet ? "xgmi" : "nvlink"),
                port_bw, up_cls, g);
        }
        pcieOut[g] = addLink(strprintf("gpu%d.pcie.out", g),
                             cfg.pcieBw, hw::TrafficClass::Pcie, g);
        pcieIn[g] = addLink(strprintf("gpu%d.pcie.in", g),
                            cfg.pcieBw, hw::TrafficClass::Pcie, g);
    }
    for (int node = 0; node < cfg.numNodes; ++node) {
        nicOut[node] = addLink(strprintf("node%d.nic.out", node),
                               cfg.nicBw, hw::TrafficClass::InfiniBand,
                               -1);
        nicIn[node] = addLink(strprintf("node%d.nic.in", node),
                              cfg.nicBw, hw::TrafficClass::InfiniBand,
                              -1);
    }
    if (cfg.chiplet) {
        int packages = n / 2;
        pkgLink.resize(packages, -1);
        for (int pkg = 0; pkg < packages; ++pkg) {
            pkgLink[pkg] = addLink(strprintf("pkg%d.xgmi", pkg),
                                   cfg.xgmiPackageBw,
                                   hw::TrafficClass::Xgmi, pkg * 2);
        }
    }
    CHARLLM_ASSERT(static_cast<int>(linkSpecs.size()) == linkCount(cfg),
                   "link layout disagrees with linkCount");
}

LinkId
Topology::nicOutLink(int node) const
{
    CHARLLM_ASSERT(node >= 0 && node < cfg.numNodes,
                   "node id out of range: ", node);
    return nicOut[static_cast<std::size_t>(node)];
}

LinkId
Topology::nicInLink(int node) const
{
    CHARLLM_ASSERT(node >= 0 && node < cfg.numNodes,
                   "node id out of range: ", node);
    return nicIn[static_cast<std::size_t>(node)];
}

LinkId
Topology::pcieOutLink(int gpu) const
{
    CHARLLM_ASSERT(gpu >= 0 && gpu < numGpus(),
                   "gpu id out of range: ", gpu);
    return pcieOut[static_cast<std::size_t>(gpu)];
}

LinkId
Topology::pcieInLink(int gpu) const
{
    CHARLLM_ASSERT(gpu >= 0 && gpu < numGpus(),
                   "gpu id out of range: ", gpu);
    return pcieIn[static_cast<std::size_t>(gpu)];
}

std::vector<LinkId>
Topology::route(int src, int dst) const
{
    CHARLLM_ASSERT(src != dst, "route to self");
    CHARLLM_ASSERT(src >= 0 && src < numGpus() && dst >= 0 &&
                       dst < numGpus(),
                   "gpu id out of range");
    std::vector<LinkId> path;
    if (sameNode(src, dst)) {
        if (samePackage(src, dst)) {
            // Direct in-package GCD link (shared by both directions;
            // xGMI in-package bandwidth is ample so this is benign).
            path.push_back(pkgLink[static_cast<std::size_t>(src / 2)]);
        } else {
            path.push_back(scaleUpOut[static_cast<std::size_t>(src)]);
            path.push_back(scaleUpIn[static_cast<std::size_t>(dst)]);
        }
    } else {
        path.push_back(pcieOut[static_cast<std::size_t>(src)]);
        path.push_back(nicOut[static_cast<std::size_t>(nodeOf(src))]);
        path.push_back(nicIn[static_cast<std::size_t>(nodeOf(dst))]);
        path.push_back(pcieIn[static_cast<std::size_t>(dst)]);
    }
    return path;
}

Seconds
Topology::messageLatency(int src, int dst) const
{
    return sameNode(src, dst) ? cfg.intraLatency : cfg.interLatency;
}

} // namespace net
} // namespace charllm
