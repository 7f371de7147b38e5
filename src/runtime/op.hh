/**
 * @file
 * Operator vocabulary of the per-rank execution programs. A program is
 * the device-level schedule a Megatron-style runtime would launch:
 * compute kernels, collectives, pipeline P2P, and stream-drain
 * barriers for overlapped communication.
 */

#ifndef CHARLLM_RUNTIME_OP_HH
#define CHARLLM_RUNTIME_OP_HH

#include <string>
#include <vector>

#include "coll/collective.hh"
#include "hw/kernel.hh"

namespace charllm {
namespace runtime {

/** Operator types executed by the engine. */
enum class OpType
{
    Compute,    //!< SM kernel (GEMM / attention / recompute / optimizer)
    Collective, //!< group collective (sync, or async under cc-overlap)
    Send,       //!< pipeline P2P send (eager, non-blocking)
    Recv,       //!< pipeline P2P receive (blocks until data arrives)
    Drain,      //!< wait for all outstanding async work on this rank
};

/** One operator in a rank program. */
struct Op
{
    OpType type = OpType::Compute;
    hw::KernelClass cls = hw::KernelClass::Gemm;
    const char* name = "";

    // Compute payload.
    Flops flops;
    Bytes hbmBytes;
    int kernels = 1; //!< device kernels the operator fuses (layers)

    // Collective payload.
    coll::CollectiveKind ckind = coll::CollectiveKind::AllReduce;
    int groupId = -1; //!< index into Program::groups
    Bytes bytes;
    bool chunked = true;
    int messages = 1; //!< back-to-back launches (per-layer collectives)
    bool async = false; //!< cc-overlap: issue and continue
    bool topologyAware = false; //!< hierarchical node-spanning rings
    /** Runs after the pipelined body (gradient sync, optimizer step,
     *  final drain): its time adds to the iteration serially. */
    bool tail = false;

    // P2P payload (bytes/chunked shared with collective fields).
    int peerDevice = -1;

    int microbatch = -1; //!< annotation for traces
};

/** A complete per-iteration schedule for every device. */
struct Program
{
    /** deviceOps[d] = ordered operator list for device d. */
    std::vector<std::vector<Op>> deviceOps;

    /** Collective group tables: groupId -> participating devices. */
    std::vector<std::vector<int>> groups;

    /**
     * Arrivals required to launch each group's collective. Equals
     * groups[g].size() normally; under rank-symmetry collapse only
     * instantiated devices execute programs, so folded groups expect
     * fewer arrivals than they have logical members.
     */
    std::vector<int> groupExpected;

    int
    worldSize() const
    {
        return static_cast<int>(deviceOps.size());
    }
};

} // namespace runtime
} // namespace charllm

#endif // CHARLLM_RUNTIME_OP_HH
