#include "parallel/parallel_config.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace charllm {
namespace parallel {

std::string
ParallelConfig::label() const
{
    std::string s;
    if (ep > 1)
        s += strprintf("EP%d-", ep);
    s += strprintf("TP%d", tp);
    if (fsdp) {
        s += strprintf("-FSDP%d", dp);
    } else {
        s += strprintf("-PP%d", pp);
        if (dp > 1)
            s += strprintf("-DP%d", dp);
    }
    return s;
}

void
addParallelProblems(Problems& problems, const ParallelConfig& par)
{
    bool widths = par.positiveWidths();
    require(problems, widths, "parallel widths must be positive (tp=",
            par.tp, " pp=", par.pp, " dp=", par.dp, " ep=", par.ep, ")");
    require(problems, !widths || par.dp % par.ep == 0, "ep (", par.ep,
            ") must divide dp (", par.dp, ")");
    require(problems, !par.fsdp || par.pp == 1,
            "FSDP configs use pp == 1 (got pp=", par.pp, ")");
}

void
addBatchProblems(Problems& problems, int dp, int global_batch,
                 int microbatch_size)
{
    if (dp < 1)
        return;
    bool split = global_batch >= 1 && global_batch % dp == 0;
    require(problems, split, "global batch (", global_batch,
            ") not a positive multiple of dp (", dp, ")");
    int replica = global_batch / dp;
    require(problems,
            !split || (microbatch_size >= 1 && replica % microbatch_size == 0),
            "replica batch (", replica,
            ") not divisible by microbatch size (", microbatch_size, ")");
}

void
ParallelConfig::validate() const
{
    Problems problems;
    addParallelProblems(problems, *this);
    CHARLLM_ASSERT(problems.empty(), problems.front());
}

ParallelConfig
ParallelConfig::forWorld(int world_size, int tp, int pp, int ep,
                         bool fsdp)
{
    CHARLLM_ASSERT(tp * pp > 0 && world_size % (tp * pp) == 0,
                   "world size ", world_size,
                   " not divisible by tp*pp = ", tp * pp);
    ParallelConfig c;
    c.tp = tp;
    c.pp = pp;
    c.dp = world_size / (tp * pp);
    c.ep = ep;
    c.fsdp = fsdp;
    c.validate();
    return c;
}

} // namespace parallel
} // namespace charllm
