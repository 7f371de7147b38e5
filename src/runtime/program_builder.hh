/**
 * @file
 * Builds per-rank operator programs from (model, parallelism,
 * options): 1F1B or interleaved (virtual-stage) pipeline schedules,
 * Megatron TP collectives, MoE expert all-to-all, FSDP
 * gather/scatter, ZeRO-1 optimizer steps, activation recomputation,
 * and compute-communication overlap.
 */

#ifndef CHARLLM_RUNTIME_PROGRAM_BUILDER_HH
#define CHARLLM_RUNTIME_PROGRAM_BUILDER_HH

#include <map>

#include "common/rng.hh"
#include "model/analytics.hh"
#include "parallel/elastic_world.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/op.hh"
#include "runtime/options.hh"
#include "scale/symmetry.hh"

namespace charllm {
namespace runtime {

/** Append to @p problems each way the schedule @p options asks of
 *  @p model_config on @p par cannot be built. */
void addScheduleProblems(Problems& problems,
                         const model::TransformerConfig& model_config,
                         const parallel::ParallelConfig& par,
                         const TrainOptions& options);

/**
 * Program construction. One builder per experiment; build() is called
 * once per iteration when the program varies by iteration (MoE
 * routing imbalance is re-drawn per iteration, elastic shrink changes
 * the live replicas), once per run otherwise.
 */
class ProgramBuilder
{
  public:
    ProgramBuilder(const model::TransformerConfig& model_config,
                   const parallel::RankMapper& mapper,
                   const TrainOptions& options);

    /** Microbatches per data-parallel replica per iteration. */
    int numMicrobatches() const { return microbatches; }

    /** Tokens processed per iteration across the whole cluster. */
    double tokensPerIteration() const;

    /** Transformer layers on pipeline stage @p stage (v = 1). */
    int layersOnStage(int stage) const;

    /** Layers per virtual chunk under interleaved scheduling. */
    double layersPerChunk() const;

    /**
     * Enable rank-symmetry collapse: build() emits programs only for
     * instantiated (replica-0) ranks, indexed by physical device id,
     * while groups and P2P peers keep logical ids. Must be set before
     * the engine is constructed; the fold must outlive the builder.
     */
    void setFold(const scale::SymmetryFold* f) { fold = f; }

    /**
     * Enable elastic DP shrink/grow: build() consults the liveness
     * mask on every call, emits no ops for dead replicas' ranks, and
     * forms DP collectives over the survivors only. Mutually
     * exclusive with setFold; the world must outlive the builder.
     */
    void setElasticWorld(const parallel::ElasticWorld* w)
    {
        elastic = w;
    }

    /** Build the schedule for iteration @p iteration. */
    Program build(int iteration) const;

    /**
     * True when build() returns the same program for every iteration
     * of one placement: no MoE routing draws and no elastic liveness
     * mask. The engine then rebuilds only when placementVersion()
     * moves.
     */
    bool
    iterationInvariant() const
    {
        return !cfg.isMoe() && elastic == nullptr;
    }

    /** The rank mapper's placement version (see RankMapper). */
    std::uint64_t placementVersion() const { return map.placementVersion(); }

    /**
     * Analytic bubble fraction: (pp-1)/(v*m + pp-1) — the classic
     * 1F1B value for v == 1.
     */
    double pipelineBubbleFraction() const;

  private:
    struct BuildContext
    {
        Program program;
        std::map<std::vector<int>, int> groupIds;
        /** Group id per group coordinate, -1 until first resolved: TP
         *  groups by (dp, pp), DP groups by (tp, pp), EP groups by
         *  (tp, pp, ep block). One build sees one liveness mask. */
        std::vector<int> tpGroupIds;
        std::vector<int> dpGroupIds;
        std::vector<int> epGroupIds;
        Rng rng;
    };

    int groupIdFor(BuildContext& ctx, std::vector<int> devices) const;

    struct Visit;
    Visit visit(BuildContext& ctx, int rank, int mb, int chunk) const;

    /** @name The visiting rank's TP / DP (survivors only) / EP group
     *  id, resolved once per build through groupIdFor, so ids keep
     *  first-encounter order.
     * @{ */
    int tpGroupId(const Visit& v) const;
    int dpGroupId(const Visit& v) const;
    int epGroupId(const Visit& v) const;
    /** @} */

    /** deviceOps slot of logical device @p dev (physical under fold). */
    std::size_t
    opSlot(int dev) const
    {
        return static_cast<std::size_t>(
            fold != nullptr ? fold->repOf(dev) : dev);
    }

    /** Data-parallel width this iteration (survivors under elastic). */
    int
    effectiveDp() const
    {
        return elastic != nullptr ? elastic->aliveReplicas()
                                  : map.config().dp;
    }

    /** Microbatches per replica this iteration (rebalanced under a
     *  degraded elastic world). */
    int
    effectiveMicrobatches() const
    {
        return elastic != nullptr ? elastic->effectiveMicrobatches()
                                  : microbatches;
    }

    /** True when @p dev sits in a dead elastic replica. */
    bool
    deviceDead(int dev) const
    {
        return elastic != nullptr &&
               elastic->replicaDead(
                   map.coordsOf(map.rankOf(dev)).dpIdx);
    }

    /** @p rank's DP group restricted to surviving replicas. */
    std::vector<int> dpGroupAlive(int rank) const;

    /** @name One builder per op kind, shared by forward and backward.
     * @{ */
    /** Appends a collective (kernel class from @p kind) and returns
     *  it for the caller's extra fields. */
    Op& collective(const Visit& v, const char* name,
                   coll::CollectiveKind kind, int group,
                   Bytes bytes) const;
    Op& layerCompute(const Visit& v, hw::KernelClass cls,
                     const char* name, double flops,
                     double weight_elems) const;
    void attention(const Visit& v, const char* name,
                   double flop_factor) const;
    void expertBlock(const Visit& v, const char* dispatch,
                     const char* name, const char* combine,
                     double flop_factor) const;
    void tpAllReduce(const Visit& v, const char* name,
                     bool closes_window) const;
    void boundary(const Visit& v, OpType type, const char* name,
                  bool downstream) const;
    /** @} */

    void emitForward(const Visit& v) const;
    void emitBackward(const Visit& v, bool grad_bucket,
                      int buckets) const;
    void emitIterationTail(const Visit& v) const;
    void emitRank(BuildContext& ctx, int rank) const;

    /** Trainable gradient bytes per GPU on this rank's stage. */
    Bytes gradBytesPerGpu(int stage) const;
    /** Parameter bytes per GPU on pipeline stage @p stage. */
    Bytes
    stageParamBytes(int stage) const
    {
        return stageParams[static_cast<std::size_t>(stage)];
    }

    model::TransformerConfig cfg;
    model::ModelAnalytics analytics;
    const parallel::RankMapper& map;
    TrainOptions opts;
    int microbatches;
    double tokensPerMicrobatch;
    std::vector<Bytes> stageParams; //!< per pipeline stage
    const scale::SymmetryFold* fold = nullptr;
    const parallel::ElasticWorld* elastic = nullptr;
};

} // namespace runtime
} // namespace charllm

#endif // CHARLLM_RUNTIME_PROGRAM_BUILDER_HH
