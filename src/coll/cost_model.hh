/**
 * @file
 * Analytic alpha-beta cost model for ring AllReduce on a flat network.
 * Used by the datacenter-scale projector (paper Sec. 7.1 follows the
 * same methodology with Astra-Sim) and by tests as a reference for the
 * flow-level simulation.
 */

#ifndef CHARLLM_COLL_COST_MODEL_HH
#define CHARLLM_COLL_COST_MODEL_HH

#include <cstddef>

#include "common/quantity.hh"

namespace charllm {
namespace coll {

/**
 * Ring AllReduce of @p bytes across @p n ranks over links of
 * @p bandwidth with per-step latency @p latency.
 * 2(n-1) steps, each moving bytes/n per rank.
 */
Seconds ringAllReduceSeconds(int n, Bytes bytes, BytesPerSec bandwidth,
                             Seconds latency);

} // namespace coll
} // namespace charllm

#endif // CHARLLM_COLL_COST_MODEL_HH
