#include "core/analytical_backend.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "coll/collective_engine.hh"
#include "common/logging.hh"
#include "hw/activity_profile.hh"
#include "hw/calibration.hh"
#include "hw/compute_model.hh"
#include "hw/dvfs.hh"
#include "hw/thermal_model.hh"
#include "net/calibration.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/program_builder.hh"

namespace charllm {
namespace core {

namespace {

/** One past the last member of the node run that starts at @p begin:
 *  an ascending member list keeps each node's members contiguous. */
std::size_t
nodeRunEnd(std::span<const int> sorted, std::size_t begin, int gpus_per_node)
{
    int node = sorted[begin] / gpus_per_node;
    std::size_t end = begin + 1;
    while (end < sorted.size() && sorted[end] / gpus_per_node == node)
        ++end;
    return end;
}

/** Wall time of one ring hop of latency @p lat and bandwidth @p bw. */
double
ringHopSeconds(coll::CollectiveKind kind, int n, Bytes bytes,
               bool chunked, int launches, double lat, double bw)
{
    double extra =
        (coll::CollectiveEngine::ringSteps(kind, n) * launches - 1) * lat;
    if (!chunked)
        extra += net::calib::kUnchunkedHandshakeSec * launches;
    return lat + extra +
           coll::CollectiveEngine::wireBytesPerRank(kind, bytes, n).value() /
               bw;
}

/** A collective priced once per program: its identity and cost. */
struct PricedCollective
{
    coll::CollectiveKind kind;
    std::uint64_t bytesBits; //!< effective bytes, bit pattern
    bool chunked;
    int messages;
    bool topologyAware;
    double seconds;
};

} // namespace

void
AnalyticalBackend::prepare()
{
    // Identical DP replicas price identically, so where the symmetry
    // proof holds only the representative replica is lowered. Unlike
    // the DES collapse this is not opt-in: no trace or critical path
    // is lost, and result.symmetry stays unset.
    folded = analyzeSymmetry(cfg, true, &fold).collapsed;
    parallel::RankMapper mapper(cfg.par);
    if (!cfg.devicePermutation.empty())
        mapper.setDevicePermutation(cfg.devicePermutation);
    runtime::ProgramBuilder builder(cfg.model, mapper, cfg.train);
    if (folded)
        builder.setFold(&fold);
    result.tokensPerIteration = builder.tokensPerIteration();
    bubbleFraction = builder.pipelineBubbleFraction();

    int total = cfg.warmupIterations + cfg.measuredIterations;
    summaryOfIteration.assign(static_cast<std::size_t>(total), 0);
    if (cfg.model.isMoe()) {
        // MoE routing imbalance is re-drawn per iteration; every
        // iteration gets its own summary.
        iterationSummaries.reserve(static_cast<std::size_t>(total));
        for (int i = 0; i < total; ++i) {
            iterationSummaries.push_back(summarize(builder.build(i)));
            summaryOfIteration[static_cast<std::size_t>(i)] = i;
        }
    } else {
        iterationSummaries.push_back(summarize(builder.build(0)));
    }
}

double
AnalyticalBackend::hopBandwidth(int src, int dst,
                                int local_members) const
{
    const auto& net = cfg.cluster.network;
    int gpn = net.gpusPerNode;
    double bw;
    if (src / gpn == dst / gpn) {
        if (net.chiplet) {
            bw = (src / 2 == dst / 2) ? net.xgmiPackageBw.value()
                                      : net.xgmiPortBw.value();
        } else {
            bw = net.nvlinkBw.value();
        }
    } else {
        // Cross-node flows traverse PCIe and the per-node NIC. Sibling
        // SPMD groups partition the node's GPUs and run the same
        // collective concurrently, so each ring's boundary flow gets a
        // members/gpusPerNode share of the NIC.
        double share = net.nicBw.value() *
                       static_cast<double>(local_members) /
                       static_cast<double>(gpn);
        bw = std::min(net.pcieBw.value(), share);
    }
    return bw * net::calib::kProtocolEfficiency;
}

double
AnalyticalBackend::collectiveSeconds(std::span<const int> sorted,
                                     coll::CollectiveKind kind,
                                     Bytes bytes, bool chunked,
                                     int messages,
                                     bool topology_aware) const
{
    const auto& net = cfg.cluster.network;
    int n = static_cast<int>(sorted.size());
    if (n <= 1)
        return net::calib::kIntraNodeLatencySec;
    int launches = std::max(messages, 1);
    int gpn = net.gpusPerNode;

    // Members are ascending, so each node's members form one run.
    int nodes = 0;
    int local = 1; // members on the most-populated node
    std::size_t first_run = nodeRunEnd(sorted, 0, gpn);
    bool uniform = true;
    for (std::size_t i = 0; i < sorted.size(); ++nodes) {
        std::size_t end = nodeRunEnd(sorted, i, gpn);
        local = std::max(local, static_cast<int>(end - i));
        uniform = uniform && end - i == first_run;
        i = end;
    }

    // Hierarchical decomposition, mirroring
    // coll::CollectiveEngine::runHierarchical.
    if (topology_aware &&
        (kind == coll::CollectiveKind::AllReduce ||
         kind == coll::CollectiveKind::AllGather ||
         kind == coll::CollectiveKind::ReduceScatter)) {
        if (nodes >= 2 && local > 1 && uniform) {
            bool has_rs = kind != coll::CollectiveKind::AllGather;
            bool has_ag = kind != coll::CollectiveKind::ReduceScatter;
            // Members per node are uniform; the first node stands for
            // every node's intra-node phase.
            auto members = sorted.first(first_run);
            double trs = collectiveSeconds(
                members, coll::CollectiveKind::ReduceScatter, bytes,
                chunked, launches, false);
            double tag = collectiveSeconds(
                members, coll::CollectiveKind::AllGather, bytes, chunked,
                launches, false);
            double t = (has_rs ? trs : 0.0) + (has_ag ? tag : 0.0);
            // The inter-node ring joins one member per node, so every
            // hop crosses nodes and costs the same.
            Bytes shard = bytes / static_cast<double>(first_run);
            t += ringHopSeconds(kind, nodes, shard, chunked,
                                launches, net.interLatency.value(),
                                hopBandwidth(sorted[0], sorted[first_run],
                                             1));
            return t;
        }
        // Non-uniform groups fall back to the flat ring, as the DES
        // collective engine does.
    }

    double intra_lat = net.intraLatency.value();
    double inter_lat = net.interLatency.value();

    if (kind == coll::CollectiveKind::AllToAll) {
        double per_pair = bytes.value() / static_cast<double>(n);
        double t_path = 0.0;
        double max_lat = intra_lat;
        // Per-device egress serialization over its own ports, plus the
        // shared node NIC for the cross-node pairs.
        double intra_bw = hopBandwidth(0, 0, local); // same-node proxy
        if (net.chiplet)
            intra_bw = net.xgmiPortBw.value() *
                       net::calib::kProtocolEfficiency;
        // Every member of a node run sees the same peer split.
        for (std::size_t i = 0; i < sorted.size();) {
            std::size_t end = nodeRunEnd(sorted, i, gpn);
            int same = static_cast<int>(end - i) - 1;
            int cross = n - 1 - same;
            if (cross > 0)
                max_lat = std::max(max_lat, inter_lat);
            double t_intra = per_pair * same / intra_bw;
            double t_pcie = cross > 0
                                ? per_pair * cross /
                                      (net.pcieBw.value() *
                                       net::calib::kProtocolEfficiency)
                                : 0.0;
            t_path = std::max(t_path, std::max(t_intra, t_pcie));
            i = end;
        }
        // NIC: all cross-node pairs of every co-located sibling group
        // funnel through one per-node port.
        double node_cross =
            per_pair * local * static_cast<double>(n - local);
        double siblings =
            std::max(1.0, static_cast<double>(gpn) / local);
        double t_nic = node_cross * siblings /
                       (net.nicBw.value() *
                        net::calib::kProtocolEfficiency);
        double extra = (launches - 1) * max_lat;
        if (!chunked)
            extra += net::calib::kUnchunkedHandshakeSec * launches;
        return max_lat + extra + std::max(t_path, t_nic);
    }

    // Ring collectives (AllReduce / AllGather / ReduceScatter /
    // Barrier): the collective finishes when its slowest flow does.
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        int src = sorted[static_cast<std::size_t>(i)];
        int dst = sorted[static_cast<std::size_t>((i + 1) % n)];
        double lat = (src / gpn == dst / gpn) ? intra_lat : inter_lat;
        t = std::max(t, ringHopSeconds(kind, n, bytes, chunked,
                                       launches, lat,
                                       hopBandwidth(src, dst, local)));
    }
    return t;
}

void
AnalyticalBackend::attributeRing(DeviceSummary& dev,
                                 std::span<const int> sorted, int device,
                                 Bytes wire) const
{
    int gpn = cfg.cluster.network.gpusPerNode;
    int n = static_cast<int>(sorted.size());
    if (n < 2)
        return;
    auto it = std::lower_bound(sorted.begin(), sorted.end(), device);
    CHARLLM_ASSERT(it != sorted.end() && *it == device, "device ", device,
                   " is not a member of its collective's group");
    int position = static_cast<int>(it - sorted.begin());
    int next = sorted[static_cast<std::size_t>((position + 1) % n)];
    int prev = sorted[static_cast<std::size_t>((position + n - 1) % n)];
    // A device's scale-up (or PCIe) ports carry its ring segment out
    // and the predecessor's segment in — matching how the DES flow
    // network attributes link bytes to port-owning GPUs.
    for (int peer : {next, prev}) {
        if (peer / gpn == device / gpn)
            dev.scaleUpBytes += wire.value();
        else
            dev.pcieBytes += wire.value();
    }
}

std::vector<AnalyticalBackend::DeviceSummary>
AnalyticalBackend::summarize(runtime::Program program) const
{
    const hw::ComputeModel model(cfg.cluster.gpu);
    const auto& net = cfg.cluster.network;
    int gpn = net.gpusPerNode;
    int world = program.worldSize();

    // A collective's cost is identical for every member of its group,
    // so each distinct (group, kind, bytes, chunking, launches,
    // topology) is priced once per program. Groups are deduplicated by
    // member list, so the memo is exact, not an approximation.
    for (std::vector<int>& members : program.groups)
        std::sort(members.begin(), members.end());
    std::vector<std::vector<PricedCollective>> priced(
        program.groups.size());
    auto price = [&](const runtime::Op& op, Bytes bytes) {
        auto& memo = priced[static_cast<std::size_t>(op.groupId)];
        std::uint64_t bits = std::bit_cast<std::uint64_t>(bytes.value());
        for (const PricedCollective& p : memo) {
            if (p.kind == op.ckind && p.bytesBits == bits &&
                p.chunked == op.chunked && p.messages == op.messages &&
                p.topologyAware == op.topologyAware)
                return p.seconds;
        }
        double seconds = collectiveSeconds(
            program.groups[static_cast<std::size_t>(op.groupId)], op.ckind,
            bytes, op.chunked, op.messages, op.topologyAware);
        memo.push_back({op.ckind, bits, op.chunked, op.messages,
                        op.topologyAware, seconds});
        return seconds;
    };

    std::vector<DeviceSummary> out(static_cast<std::size_t>(world));
    for (int s = 0; s < world; ++s) {
        DeviceSummary& dev = out[static_cast<std::size_t>(s)];
        const auto& ops =
            program.deviceOps[static_cast<std::size_t>(s)];
        // Groups and peers keep logical ids; under the fold program
        // device s is the representative of logical device d.
        int d = folded ? fold.logicalOf(s) : s;
        dev.ops.reserve(ops.size());
        for (const auto& op : ops) {
            OpCost c;
            c.type = op.type;
            c.cls = op.cls;
            c.tail = op.tail;
            c.async = op.async;
            const auto& profile = hw::activityProfileFor(op.cls);
            c.occupancy = profile.occupancy;
            c.warpsPerSm = profile.warpsPerSm;
            c.threadblocks = profile.threadblocks;
            switch (op.type) {
              case runtime::OpType::Compute: {
                hw::ComputeWork work{op.cls, op.flops, op.hbmBytes,
                                     op.kernels};
                c.nominalSec =
                    model.duration(work, ClockRel(1.0)).value();
                c.smUtil = model.smUtilization(work);
                c.powerActivity =
                    hw::computeActivity(profile, c.smUtil);
                c.occupancy *= std::max(c.smUtil, 0.3);
                break;
              }
              case runtime::OpType::Collective: {
                const auto& sorted =
                    program.groups[static_cast<std::size_t>(op.groupId)];
                Bytes bytes = op.bytes;
                // Overlapped collectives contend with concurrent
                // compute (engine applies kOverlapCommPenalty).
                if (op.async)
                    bytes *= hw::calib::kOverlapCommPenalty;
                c.commSec = price(op, bytes);
                c.powerActivity = profile.powerActivity;
                if (op.ckind == coll::CollectiveKind::AllToAll) {
                    double per_pair = bytes.value() /
                                      static_cast<double>(sorted.size());
                    for (int p : sorted) {
                        if (p == d)
                            continue;
                        if (p / gpn == d / gpn)
                            dev.scaleUpBytes += 2.0 * per_pair;
                        else
                            dev.pcieBytes += 2.0 * per_pair;
                    }
                } else {
                    attributeRing(
                        dev, sorted, d,
                        coll::CollectiveEngine::wireBytesPerRank(
                            op.ckind, bytes,
                            static_cast<int>(sorted.size())));
                }
                break;
              }
              case runtime::OpType::Send:
              case runtime::OpType::Recv: {
                int src = op.type == runtime::OpType::Send
                              ? d
                              : op.peerDevice;
                int dst = op.type == runtime::OpType::Send
                              ? op.peerDevice
                              : d;
                double lat = (src / gpn == dst / gpn)
                                 ? net.intraLatency.value()
                                 : net.interLatency.value();
                double extra =
                    op.chunked
                        ? 0.0
                        : net::calib::kUnchunkedHandshakeSec;
                c.commSec = lat + extra +
                            op.bytes.value() /
                                hopBandwidth(src, dst, 1);
                c.powerActivity = profile.powerActivity;
                if (src / gpn == dst / gpn)
                    dev.scaleUpBytes += op.bytes.value();
                else
                    dev.pcieBytes += op.bytes.value();
                break;
              }
              case runtime::OpType::Drain:
                break;
            }
            dev.ops.push_back(c);
        }
    }
    return out;
}

AnalyticalBackend::DeviceWalk
AnalyticalBackend::walkDevice(const DeviceSummary& dev,
                              double clock) const
{
    using namespace hw::calib;
    DeviceWalk w;
    double clk = std::max(clock, 1e-3);
    double async_rem = 0.0; //!< outstanding overlapped comm (wall sec)
    double async_act = 0.0; //!< strongest outstanding comm activity

    auto add_busy = [&w](bool tail, double d) {
        (tail ? w.tailBusySec : w.bodyBusySec) += d;
    };
    auto add_profile = [&w](const OpCost& op, double d) {
        w.occupancySec += op.occupancy * d;
        w.warpSec += op.warpsPerSm * d;
        w.blockSec += op.threadblocks * d;
    };

    for (const OpCost& op : dev.ops) {
        switch (op.type) {
          case runtime::OpType::Compute: {
            double d;
            double act;
            if (async_rem > 0.0) {
                // Compute contends with overlapped comm: the engine
                // derates the compute rate by kOverlapComputePenalty
                // until the async work drains.
                double rate = clk / kOverlapComputePenalty;
                double wall_pen = op.nominalSec / rate;
                double stacked =
                    hw::stackedActivity(op.powerActivity, async_act);
                if (wall_pen <= async_rem) {
                    d = wall_pen;
                    async_rem -= d;
                    act = stacked * d;
                } else {
                    double t1 = async_rem;
                    double remaining = op.nominalSec - t1 * rate;
                    double t2 = remaining / clk;
                    d = t1 + t2;
                    act = stacked * t1 + op.powerActivity * t2;
                    async_rem = 0.0;
                }
            } else {
                d = op.nominalSec / clk;
                act = op.powerActivity * d;
            }
            if (async_rem <= 0.0)
                async_act = 0.0;
            add_busy(op.tail, d);
            w.breakdown[op.cls] += d;
            w.activitySec += act;
            w.peakActivity =
                std::max(w.peakActivity, op.powerActivity);
            add_profile(op, d);
            break;
          }
          case runtime::OpType::Collective:
            if (op.async) {
                async_rem += op.commSec;
                async_act = std::max(async_act, op.powerActivity);
                w.breakdown[op.cls] += op.commSec;
                add_profile(op, op.commSec);
            } else {
                double d = op.commSec;
                async_rem = std::max(0.0, async_rem - d);
                if (async_rem <= 0.0)
                    async_act = 0.0;
                add_busy(op.tail, d);
                w.breakdown[op.cls] += d;
                w.activitySec += hw::kCommStackWeight * op.powerActivity * d;
                w.peakActivity = std::max(
                    w.peakActivity, hw::kCommStackWeight * op.powerActivity);
                add_profile(op, d);
            }
            break;
          case runtime::OpType::Send:
            // Eager send: the flow proceeds while this rank computes.
            async_rem += op.commSec;
            async_act = std::max(async_act, op.powerActivity);
            w.breakdown[op.cls] += op.commSec;
            add_profile(op, op.commSec);
            break;
          case runtime::OpType::Recv: {
            double d = op.commSec;
            async_rem = std::max(0.0, async_rem - d);
            if (async_rem <= 0.0)
                async_act = 0.0;
            add_busy(op.tail, d);
            w.breakdown[op.cls] += d;
            w.activitySec += hw::kCommStackWeight * op.powerActivity * d;
            add_profile(op, d);
            break;
          }
          case runtime::OpType::Drain: {
            double d = async_rem;
            async_rem = 0.0;
            add_busy(op.tail, d);
            w.activitySec += hw::kCommStackWeight * async_act * d;
            async_act = 0.0;
            break;
          }
        }
    }
    // Leftover async work past the last op flushes into the tail
    // (the engine's rank-done barrier).
    if (async_rem > 0.0) {
        w.tailBusySec += async_rem;
        w.activitySec += hw::kCommStackWeight * async_act * async_rem;
    }
    return w;
}

double
AnalyticalBackend::iterationSeconds(
    const std::vector<DeviceWalk>& walks) const
{
    double body = 0.0;
    double tail = 0.0;
    for (const DeviceWalk& w : walks) {
        body = std::max(body, w.bodyBusySec);
        tail = std::max(tail, w.tailBusySec);
    }
    double denom = 1.0 - bubbleFraction;
    CHARLLM_ASSERT(denom > 0.0, "degenerate pipeline bubble fraction ",
                   bubbleFraction);
    return body / denom + tail;
}

void
AnalyticalBackend::run()
{
    using namespace hw::calib;
    const hw::GpuSpec& spec = cfg.cluster.gpu;
    // Under the fold every per-device vector covers the representative
    // replica: it owns whole nodes (tp % gpusPerNode == 0) and the
    // steady state is node-local, so physical node n stands for every
    // replica image of its logical node.
    int world = folded ? fold.physWorld() : cfg.cluster.numGpus();
    double tdp = spec.tdpWatts.value();
    double idle = spec.idleWatts.value();

    std::vector<double> power_cap(static_cast<std::size_t>(world), tdp);
    int gpn = cfg.cluster.network.gpusPerNode;
    for (const auto& [node, watts] : cfg.nodePowerCaps) {
        for (int g = node * gpn; g < (node + 1) * gpn; ++g)
            power_cap[static_cast<std::size_t>(g)] = watts;
    }

    std::vector<hw::DvfsGovernor> governors(
        static_cast<std::size_t>(world), hw::DvfsGovernor(spec));
    hw::ThermalModel thermal(cfg.cluster.chassis,
                             folded ? fold.physNodes()
                                    : cfg.cluster.numNodes,
                             spec.thermalResistance);
    std::vector<double> clocks(static_cast<std::size_t>(world), 1.0);
    std::vector<Watts> powers(static_cast<std::size_t>(world),
                              Watts(idle));
    std::vector<double> act_avg(static_cast<std::size_t>(world), 0.0);
    std::vector<bool> compute_bound(static_cast<std::size_t>(world),
                                    true);

    // Steady-state thermal/DVFS fixed point on the first measured
    // iteration's program: walk -> activity -> power -> steady-state
    // temperature -> governor, until the iteration time converges.
    const auto& ref = iterationSummaries[static_cast<std::size_t>(
        summaryOfIteration[static_cast<std::size_t>(
            cfg.warmupIterations)])];
    std::vector<DeviceWalk> walks(static_cast<std::size_t>(world));
    double t_iter = 0.0;
    double prev_t = 0.0;
    for (int round = 0; round < 8; ++round) {
        for (int d = 0; d < world; ++d) {
            walks[static_cast<std::size_t>(d)] = walkDevice(
                ref[static_cast<std::size_t>(d)],
                clocks[static_cast<std::size_t>(d)]);
        }
        t_iter = iterationSeconds(walks);
        for (int d = 0; d < world; ++d) {
            const DeviceWalk& w = walks[static_cast<std::size_t>(d)];
            act_avg[static_cast<std::size_t>(d)] =
                std::min(w.activitySec / t_iter, hw::kActivityCap);
            compute_bound[static_cast<std::size_t>(d)] =
                w.breakdown.computeTotal() >= w.breakdown.commTotal();
        }
        for (int inner = 0; inner < 64; ++inner) {
            for (int d = 0; d < world; ++d) {
                powers[static_cast<std::size_t>(d)] = hw::devicePower(
                    spec, act_avg[static_cast<std::size_t>(d)],
                    clocks[static_cast<std::size_t>(d)]);
            }
            bool stable = true;
            for (int d = 0; d < world; ++d) {
                Celsius temp = thermal.steadyState(d, powers);
                double eff =
                    powers[static_cast<std::size_t>(d)].value();
                if (power_cap[static_cast<std::size_t>(d)] < tdp)
                    eff += tdp - power_cap[static_cast<std::size_t>(d)];
                double clk =
                    governors[static_cast<std::size_t>(d)]
                        .evaluate(temp, Watts(eff),
                                  compute_bound
                                      [static_cast<std::size_t>(d)])
                        .value();
                if (clk != clocks[static_cast<std::size_t>(d)]) {
                    clocks[static_cast<std::size_t>(d)] = clk;
                    stable = false;
                }
            }
            if (stable)
                break;
        }
        if (round > 0 &&
            std::fabs(t_iter - prev_t) <=
                1e-3 * std::max(t_iter, 1e-12))
            break;
        prev_t = t_iter;
    }
    for (int d = 0; d < world; ++d) {
        powers[static_cast<std::size_t>(d)] = hw::devicePower(
            spec, act_avg[static_cast<std::size_t>(d)],
            clocks[static_cast<std::size_t>(d)]);
    }

    // Price every iteration at the converged clocks.
    int total = cfg.warmupIterations + cfg.measuredIterations;
    std::vector<std::vector<DeviceWalk>> walks_by_summary(
        iterationSummaries.size());
    auto walks_for = [&](int summary) -> std::vector<DeviceWalk>& {
        auto& cached =
            walks_by_summary[static_cast<std::size_t>(summary)];
        if (cached.empty()) {
            cached.resize(static_cast<std::size_t>(world));
            const auto& summ =
                iterationSummaries[static_cast<std::size_t>(summary)];
            for (int d = 0; d < world; ++d) {
                cached[static_cast<std::size_t>(d)] = walkDevice(
                    summ[static_cast<std::size_t>(d)],
                    clocks[static_cast<std::size_t>(d)]);
            }
        }
        return cached;
    };

    double measure_start = 0.0;
    double measured_total = 0.0;
    for (int i = 0; i < total; ++i) {
        int s = summaryOfIteration[static_cast<std::size_t>(i)];
        double t = iterationSeconds(walks_for(s));
        if (i < cfg.warmupIterations) {
            measure_start += t;
        } else {
            result.iterationSeconds.push_back(t);
            measured_total += t;
        }
    }
    result.measureStartSec = measure_start;
    double iters = static_cast<double>(cfg.measuredIterations);
    result.avgIterationSeconds = measured_total / iters;

    std::vector<GpuResult> gpus(static_cast<std::size_t>(world));
    for (int d = 0; d < world; ++d) {
        // Average the per-iteration walks over the measured window.
        DeviceWalk mean;
        double scale_up = 0.0;
        double pcie = 0.0;
        for (int i = cfg.warmupIterations; i < total; ++i) {
            int s = summaryOfIteration[static_cast<std::size_t>(i)];
            const DeviceWalk& w =
                walks_for(s)[static_cast<std::size_t>(d)];
            mean.breakdown.merge(w.breakdown);
            mean.activitySec += w.activitySec;
            mean.occupancySec += w.occupancySec;
            mean.warpSec += w.warpSec;
            mean.blockSec += w.blockSec;
            mean.peakActivity =
                std::max(mean.peakActivity, w.peakActivity);
            const DeviceSummary& summ = iterationSummaries
                [static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(d)];
            scale_up += summ.scaleUpBytes;
            pcie += summ.pcieBytes;
        }
        for (double& s : mean.breakdown.seconds)
            s /= iters;
        double t_avg = result.avgIterationSeconds;
        double clk = clocks[static_cast<std::size_t>(d)];

        GpuResult& g = gpus[static_cast<std::size_t>(d)];
        g.avgPowerW = powers[static_cast<std::size_t>(d)].value();
        double peak_act = std::min(mean.peakActivity, hw::kActivityCap);
        g.peakPowerW = hw::devicePower(spec, peak_act, clk).value();
        Celsius temp = thermal.steadyState(d, powers);
        g.avgTempC = temp.value();
        g.peakTempC = temp.value();
        g.avgClockGhz = clk * spec.nominalClockGhz;
        g.throttleRatio =
            clk < kThrottleClockThresholdRel ? 1.0 : 0.0;
        g.avgOccupancy =
            mean.occupancySec / iters / t_avg;
        g.avgWarps = mean.warpSec / iters / t_avg;
        g.avgThreadblocks = mean.blockSec / iters / t_avg;
        g.energyJ = g.avgPowerW * measured_total;
        g.pcieBytes = pcie / iters;
        g.scaleUpBytes = scale_up / iters;
        g.breakdown = mean.breakdown;
    }
    if (folded) {
        // Every logical GPU reads its representative, in logical order,
        // so execute() folds the same addition sequence as a full run.
        result.gpus.reserve(static_cast<std::size_t>(fold.logicalWorld()));
        for (int d = 0; d < fold.logicalWorld(); ++d)
            result.gpus.push_back(
                gpus[static_cast<std::size_t>(fold.repOf(d))]);
    } else {
        result.gpus = std::move(gpus);
    }
    // No event queue ran: telemetry series stay empty, the trace stays
    // null, and the simulator self-profiling counters stay zero.
}

} // namespace core
} // namespace charllm
