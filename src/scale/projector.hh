/**
 * @file
 * Datacenter-scale projection (paper Sec. 7.1): extend measured
 * kernel times to thousands of GPUs by growing data parallelism while
 * holding TP/PP fixed — divide measured compute and communication by
 * the DP degree, then add the modelled DP AllReduce at the target
 * interconnect bandwidth (the paper does the same with Astra-Sim on
 * top of real-GPU profiles).
 *
 * The DP AllReduce term is coll::ringAllReduceSeconds, the alpha-beta
 * ring model.
 */

#ifndef CHARLLM_SCALE_PROJECTOR_HH
#define CHARLLM_SCALE_PROJECTOR_HH

#include <vector>

#include "common/quantity.hh"

namespace charllm {
namespace scale {

/** Measured DP=1 baseline (one iteration) feeding the projection. */
struct ProjectionInput
{
    Seconds computeSeconds{0.0};   //!< SM kernel time per iter
    Seconds intraCommSeconds{0.0}; //!< NVLink-class comm per iter
    Seconds interCommSeconds{0.0}; //!< NIC-class comm per iter
    Bytes gradBytesPerGpu{0.0};    //!< DP AllReduce payload
    int baseGpus = 0;              //!< TP * PP
    int gpusPerNode = 8;
    double tokensPerIteration = 0.0;
    BytesPerSec nodeBandwidth{12.5e9}; //!< NIC per direction
    Seconds messageLatency{18e-6};     //!< per AllReduce step
};

/** One projected operating point. */
struct ProjectionPoint
{
    int dp = 1;
    int totalGpus = 0;
    Seconds computeSeconds{0.0};
    Seconds commSeconds{0.0};      //!< non-DP communication
    Seconds allReduceSeconds{0.0}; //!< DP gradient AllReduce
    Seconds iterationSeconds{0.0};
    double tokensPerSecond = 0.0;
    double perGpuTokensPerSecond = 0.0;
    /** Achieved / ideal speedup against the DP=1 baseline at the
     *  same bandwidth multiplier (1.0 = perfect, never above). */
    double strongScalingEfficiency = 1.0;
};

/**
 * Projects iteration time and throughput across DP degrees and
 * inter-node bandwidth multipliers. The constructor rejects
 * non-finite or negative inputs and a zero total baseline time, so
 * every projected point is finite by construction.
 */
class Projector
{
  public:
    explicit Projector(const ProjectionInput& input);

    /**
     * Project one operating point.
     * @param dp data-parallel degree (total GPUs = baseGpus * dp)
     * @param bandwidth_multiplier inter-node bandwidth scale
     *        (1.0 = 100 G baseline, 8.0 = 800 G)
     */
    ProjectionPoint project(int dp,
                            double bandwidth_multiplier = 1.0) const;

    const ProjectionInput& input() const { return in; }

  private:
    ProjectionInput in;
};

} // namespace scale
} // namespace charllm

#endif // CHARLLM_SCALE_PROJECTOR_HH
