/**
 * @file
 * Host-time benchmark of the simulator: workload definitions, the
 * untraced and traced passes, simulated-output checks and the isolated
 * per-layer probes. Every timing here is taken from outside the
 * simulator, around calls into its public API; nothing under src/ is
 * instrumented.
 */

#ifndef CHARLLM_HOSTBENCH_HOSTBENCH_HH
#define CHARLLM_HOSTBENCH_HOSTBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"

namespace hostbench {

using namespace charllm;

/** Seconds on the host's monotonic clock. */
double hostSeconds();

/** Heap allocations (operator new calls) made by this process so far. */
std::uint64_t allocationCount();

/** Host seconds of one run of the fixed calibration kernel. */
double calibrationSeconds();

// ---- workloads --------------------------------------------------------------

/** One fixed set of simulator inputs. A pass runs every config once. */
struct Workload
{
    std::string name;
    std::vector<core::ExperimentConfig> configs;
    /** Each pass also writes the run reports of every config. */
    bool writesReports = false;
    /** Whether --seed changes the inputs (the failure schedule). */
    bool seeded = false;
    /** Failure seed the inputs were built from (seeded workloads). */
    std::uint64_t failureSeed = 0;
};

const std::vector<std::string>& workloadNames();

/** Build workload @p name; @p failure_seed drives the failure schedule
 *  of a seeded workload and is ignored by the others. Fatal if the name
 *  is unknown. */
Workload makeWorkload(const std::string& name, std::uint64_t failure_seed);

/**
 * Failure seeds a seeded workload draws from. A failure schedule sets
 * how long the simulated run lasts, and host time follows simulated
 * time, so the pool holds only seeds whose simulated run length lies
 * within kPoolBand of the median over the first kPoolSample seeds:
 * every benchmark seed then costs the same host work, on different
 * failure times and targets. The benchmark seed picks pool entry
 * seed mod kPoolSize.
 */
constexpr std::size_t kPoolSize = 64;
constexpr std::uint64_t kPoolSample = 128;
constexpr double kPoolBand = 0.02;

// ---- simulated outputs --------------------------------------------------------

/** Named simulated outputs of one experiment, in a fixed order. */
using Outputs = std::vector<std::pair<std::string, double>>;

/**
 * The outputs checked against the committed reference: feasibility,
 * iteration seconds, tokens/s, tokens/J, peak temperature, throttle
 * ratio and, where present, ETTR and the critical-path cause split.
 */
Outputs checkedOutputs(const core::ExperimentResult& result);

/** checkedOutputs plus energy, event and flow counts: the traced pass
 *  must reproduce all of them bit for bit. */
Outputs bitwiseOutputs(const core::ExperimentResult& result);

/** Per-metric tolerance of the reference check (as bench_backend_xval). */
constexpr double kTolerance = 0.10;

/**
 * Largest deviation of @p got from @p ref: relative error for values,
 * absolute difference for the throttle ratio and the critical-path
 * cause split (shares of time already). A missing output, or an
 * infeasible run where the reference was feasible, reads as infinity.
 */
double maxDeviation(const Outputs& got, const Outputs& ref);

/** Reference outputs keyed by case ("c<config>" or "s<seed>.c<config>"). */
using Reference = std::map<std::string, Outputs>;

std::string caseKey(const Workload& w, std::size_t config);

/** Failure seeds present in @p ref, ascending (the workload's pool). */
std::vector<std::uint64_t> failureSeedPool(const Reference& ref);

/** Parse a reference file; returns false when it cannot be read. */
bool loadReference(const std::string& path, Reference* out);

/** Append @p outputs of case @p key to @p text in the file format. */
void formatReference(const std::string& key, const Outputs& outputs,
                     std::string* text);

// ---- passes -------------------------------------------------------------------

/** Host seconds spent in each sim::Backend phase over one pass. */
struct BackendPhases
{
    double lower = 0.0;
    double execute = 0.0;
    double results = 0.0;
};

/** Report-layer cost of one pass (reports written inside the pass). */
struct ReportCost
{
    double writeSec = 0.0;
    std::uint64_t bytes = 0;
};

/** Write every report of @p result into @p dir; returns the cost. */
ReportCost writeReportsTimed(const core::ExperimentResult& result,
                             const std::string& dir,
                             const std::string& stem);

/** Per-layer host counts and times of one traced pass. */
struct LayerTimes
{
    std::uint64_t ticks = 0;
    double tickSec = 0.0;
    double eventLoopSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t loopAllocs = 0;
    std::uint64_t flows = 0;
    std::uint64_t fullRecomputes = 0;
    std::uint64_t fastJoins = 0;
    std::uint64_t fastCompletions = 0;
    double programBuildSec = 0.0; //!< outside re-build of each iteration
    std::uint64_t samples = 0;
    std::uint64_t traceSpans = 0;
    std::uint64_t failuresHit = 0;
    int logicalWorld = 0;
    int physicalWorld = 0;

    void add(const LayerTimes& o);
};

/** Sizes the traced pass saw, for the isolated probes. */
struct ProbeSizes
{
    /** Config the sizes came from (the one with the most events). */
    core::ExperimentConfig config;
    bool valid = false;
    std::uint64_t events = 0;
    int physicalNodes = 0;
    std::size_t peakActiveFlows = 0;
    std::size_t peakPendingEvents = 0;
};

/**
 * The DES stack of core::DesBackend (lower + execute), built here with
 * a governor ticker the benchmark registers in place of
 * hw::Platform::start, so Platform::tick and TrainingEngine::run can be
 * timed from outside. Adds the run's counts and times to @p layers and
 * its peak sizes to @p sizes. @p windowSec receives the host seconds of
 * the run itself (probes excluded).
 */
core::ExperimentResult tracedDes(const core::ExperimentConfig& config,
                                 LayerTimes* layers, ProbeSizes* sizes,
                                 double* windowSec);

// ---- isolated probes ------------------------------------------------------------

/** Per-call estimates from driving one layer alone at a run's sizes. */
struct ProbeResults
{
    double dispatchNsPerEvent = 0.0;
    double recomputeUs = 0.0;
    double thermalStepUs = 0.0;
};

ProbeResults runProbes(const ProbeSizes& sizes);

} // namespace hostbench

#endif // CHARLLM_HOSTBENCH_HOSTBENCH_HH
