#include "coll/cost_model.hh"

#include "common/logging.hh"

namespace charllm {
namespace coll {

Seconds
ringAllReduceSeconds(int n, Bytes bytes, BytesPerSec bandwidth,
                     Seconds latency)
{
    CHARLLM_ASSERT(n >= 1 && bandwidth.value() > 0.0,
                   "bad allreduce params");
    if (n == 1)
        return Seconds(0.0);
    double steps = 2.0 * (n - 1);
    Bytes wire = 2.0 * bytes * (n - 1) / n;
    return steps * latency + wire / bandwidth;
}

} // namespace coll
} // namespace charllm
