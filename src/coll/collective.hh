/**
 * @file
 * Collective-communication vocabulary shared by the collective engine
 * and the runtime.
 */

#ifndef CHARLLM_COLL_COLLECTIVE_HH
#define CHARLLM_COLL_COLLECTIVE_HH

#include <vector>

#include "common/quantity.hh"

namespace charllm {
namespace coll {

/** Supported collective operations. */
enum class CollectiveKind
{
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    SendRecv,
    Barrier,
};

inline const char*
collectiveKindName(CollectiveKind k)
{
    switch (k) {
      case CollectiveKind::AllReduce: return "AllReduce";
      case CollectiveKind::AllGather: return "AllGather";
      case CollectiveKind::ReduceScatter: return "ReduceScatter";
      case CollectiveKind::AllToAll: return "AllToAll";
      case CollectiveKind::SendRecv: return "SendRecv";
      case CollectiveKind::Barrier: return "Barrier";
      default: return "?";
    }
}

/** One collective invocation. The completion callback is passed to
 *  CollectiveEngine::run alongside, so a caller can keep one request
 *  and re-fill it without reallocating its rank list. */
struct CollectiveRequest
{
    CollectiveKind kind = CollectiveKind::AllReduce;

    /**
     * Participating global GPU ids. For SendRecv exactly two entries:
     * {src, dst}.
     */
    std::vector<int> ranks;

    /**
     * Semantic payload: the per-rank tensor size for
     * AllReduce/AllGather/ReduceScatter/AllToAll, or the message size
     * for SendRecv.
     */
    Bytes bytes;

    /**
     * Whether the transport pipelines the payload in chunks. NCCL
     * collectives chunk; the sparse SendRecv calls emitted by TP+PP
     * interaction do not (paper Sec. 4.2) and pay an extra rendezvous
     * handshake per message.
     */
    bool chunked = true;

    /**
     * Number of back-to-back launches this request stands for (e.g.
     * one collective per transformer layer when the runtime fuses a
     * pipeline stage's communication into one request). The payload
     * is the total across launches; per-launch latency multiplies.
     */
    int messages = 1;

    /**
     * Topology-aware execution (the paper's Sec. 4.2 recommendation):
     * ring collectives whose group spans nodes run hierarchically —
     * intra-node reduce-scatter, inter-node exchange of the reduced
     * shards, intra-node all-gather — keeping most wire volume on the
     * scale-up fabric. Ignored for groups confined to one node and
     * for AllToAll/SendRecv.
     */
    bool topologyAware = false;
};

} // namespace coll
} // namespace charllm

#endif // CHARLLM_COLL_COLLECTIVE_HH
