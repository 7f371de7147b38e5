/**
 * @file
 * Cluster interconnect topology (paper Figure 1): NVLink/NVSwitch or
 * xGMI inside a node, a shared per-node PCIe/NIC path and a
 * non-blocking InfiniBand fabric between nodes.
 *
 * The topology is a directed link graph. Each GPU owns directional
 * port links (scale-up port, PCIe up/down); each node owns NIC links.
 * Routes are link-id sequences used by the FlowNetwork for max-min
 * fair bandwidth sharing — which is exactly where the paper's PCIe/NIC
 * contention effects come from.
 */

#ifndef CHARLLM_NET_TOPOLOGY_HH
#define CHARLLM_NET_TOPOLOGY_HH

#include <string>
#include <vector>

#include "hw/gpu.hh"

namespace charllm {
namespace net {

using LinkId = int;

/** Static description of one directional link. */
struct LinkSpec
{
    std::string name;
    BytesPerSec capacity;
    hw::TrafficClass cls = hw::TrafficClass::NvLink;
    int ownerGpu = -1;     //!< GPU whose counter this link feeds, or -1
};

/**
 * Interconnect topology for one homogeneous cluster.
 */
class Topology
{
  public:
    struct Params
    {
        int numNodes = 1;
        int gpusPerNode = 8;

        // Scale-up fabric. When chiplet is false we model an
        // NVSwitch-style non-blocking fabric fed by per-GPU NVLink
        // ports; when true, xGMI with fast in-package GCD pairs.
        bool chiplet = false;
        BytesPerSec nvlinkBw;       //!< per GPU per direction
        BytesPerSec xgmiPackageBw;  //!< same-package GCD pair link
        BytesPerSec xgmiPortBw;     //!< cross-package per-GCD port

        BytesPerSec pcieBw;         //!< per GPU per direction
        BytesPerSec nicBw;          //!< per node per direction

        Seconds intraLatency;       //!< per-message, same node
        Seconds interLatency;       //!< per-message, cross node
    };

    /** HGX H100/H200 style node (NVLink 4 + PCIe Gen5 + 100G IB). */
    static Params hgxParams(int num_nodes, double nic_gbps = 100.0);

    /** MI250 node (xGMI + PCIe Gen4 + 100G IB). */
    static Params mi250Params(int num_nodes, double nic_gbps = 100.0);

    /** Single-GPU-per-node variant of @p base (paper Fig. 8 setup). */
    static Params oneGpuPerNode(Params base, int num_nodes);

    /** Number of links a topology built from @p params has. */
    static int linkCount(const Params& params);

    explicit Topology(const Params& params);

    const Params& params() const { return cfg; }
    int numNodes() const { return cfg.numNodes; }
    int gpusPerNode() const { return cfg.gpusPerNode; }
    int numGpus() const { return cfg.numNodes * cfg.gpusPerNode; }

    int nodeOf(int gpu) const { return gpu / cfg.gpusPerNode; }
    bool sameNode(int a, int b) const { return nodeOf(a) == nodeOf(b); }

    /** Chiplet clusters: GCDs 2k and 2k+1 share a package. */
    bool
    samePackage(int a, int b) const
    {
        return cfg.chiplet && sameNode(a, b) && a / 2 == b / 2;
    }

    const std::vector<LinkSpec>& links() const { return linkSpecs; }
    const LinkSpec& link(LinkId id) const
    {
        return linkSpecs[static_cast<std::size_t>(id)];
    }

    /** @name Named port lookup (for targeted fault injection)
     * @{ */
    LinkId nicOutLink(int node) const;
    LinkId nicInLink(int node) const;
    LinkId pcieOutLink(int gpu) const;
    LinkId pcieInLink(int gpu) const;
    /** @} */

    /** Directed route from @p src GPU to @p dst GPU (src != dst). */
    std::vector<LinkId> route(int src, int dst) const;

    /** Per-message latency between two GPUs. */
    Seconds messageLatency(int src, int dst) const;

    /** Interconnect class used for intra-node traffic. */
    hw::TrafficClass
    intraClass() const
    {
        return cfg.chiplet ? hw::TrafficClass::Xgmi
                           : hw::TrafficClass::NvLink;
    }

  private:
    LinkId addLink(const std::string& name, BytesPerSec capacity,
                   hw::TrafficClass cls, int owner_gpu);

    Params cfg;
    std::vector<LinkSpec> linkSpecs;

    // Per-GPU port link ids.
    std::vector<LinkId> scaleUpOut;
    std::vector<LinkId> scaleUpIn;
    std::vector<LinkId> pcieOut;
    std::vector<LinkId> pcieIn;
    // Per-node NIC link ids.
    std::vector<LinkId> nicOut;
    std::vector<LinkId> nicIn;
    // Chiplet: per-package internal pair link (one per direction pair).
    std::vector<LinkId> pkgLink; // indexed by package, symmetric capacity
};

} // namespace net
} // namespace charllm

#endif // CHARLLM_NET_TOPOLOGY_HH
