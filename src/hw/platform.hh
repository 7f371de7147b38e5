/**
 * @file
 * Hardware platform: a homogeneous fleet of GPUs plus the thermal
 * model, driven by periodic governor ticks on the simulator.
 */

#ifndef CHARLLM_HW_PLATFORM_HH
#define CHARLLM_HW_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/marked_set.hh"
#include "hw/chassis.hh"
#include "hw/gpu.hh"
#include "hw/thermal_model.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace hw {

/** How Platform::tick advances temperatures and governors. */
enum class TickMode
{
    /**
     * Temperatures in closed form; a tick evaluates only the devices
     * with a decision pending, so a tick where none is costs O(1).
     */
    Lazy,
    /** The reference twin: a forward-Euler step on every node and the
     *  governor on every device, every tick. */
    Eager,
};

/** What the governor ticks and the devices' power reads did over a
 *  run. */
struct GovernorCounters
{
    std::uint64_t ticks = 0;        //!< governor ticks
    std::uint64_t deviceEvals = 0;  //!< per-device governor evaluations
    std::uint64_t clockChanges = 0; //!< evaluations that moved a clock
    std::uint64_t refreshes = 0;    //!< Gpu::refreshes, summed
    std::uint64_t powerEvals = 0;   //!< Gpu::powerEvals, summed
};

/**
 * Told of each change of a device's effective clock, by a governor
 * evaluation or an injected slowdown, in the order the platform makes
 * them (the engine re-times the device's running kernel). A plain
 * interface called once per change, so it allocates nothing.
 */
class ClockObserver
{
  public:
    /** Device @p gpu_id's effective clock changed. */
    virtual void onClockChange(int gpu_id) = 0;

  protected:
    ~ClockObserver() = default;
};

/**
 * Owns the devices of one cluster and advances their physical state.
 * start() must be called once after construction to arm the periodic
 * thermal/governor tick.
 *
 * Under TickMode::Lazy a device is evaluated at a tick only if
 *  (a) its activity, power, cap or slowdown changed since the last
 *      tick, or its node was re-anchored (which those changes, (b) and
 *      thermal faults cause);
 *  (b) its last evaluation moved its governor's clock or reason; or
 *  (c) its node's closed form leaves the governor band (DvfsGovernor::
 *      zone) it was in at its last evaluation.
 * Otherwise the governor would repeat its last decision, so the result
 * is the eager twin's up to the integrators' rounding. Due devices run
 * in ascending id, as the eager twin runs all of them.
 */
class Platform : private sim::TickerSkip
{
  public:
    Platform(sim::Simulator& sim, const GpuSpec& spec,
             const ChassisLayout& layout, int num_nodes,
             TickMode mode = TickMode::Lazy);

    // The ticker and the devices' change marks hold its address.
    Platform(const Platform&) = delete;
    Platform& operator=(const Platform&) = delete;

    int numGpus() const { return static_cast<int>(devices.size()); }
    int gpusPerNode() const { return thermalNet.layout().gpusPerNode(); }
    int numNodes() const { return nodes; }

    Gpu& gpu(int id) { return *devices[static_cast<std::size_t>(id)]; }
    const Gpu&
    gpu(int id) const
    {
        return *devices[static_cast<std::size_t>(id)];
    }

    ThermalModel& thermal() { return thermalNet; }
    const ThermalModel& thermal() const { return thermalNet; }

    /** Junction temperature of a device as of the last tick. */
    Celsius
    temperature(int gpu_id) const
    {
        return thermalNet.temperature(gpu_id);
    }

    /** Node index of a device. */
    int nodeOf(int gpu_id) const { return gpu_id / gpusPerNode(); }

    /** The governor's counters, with the devices' refresh counts
     *  summed in. */
    GovernorCounters counters() const;

    /**
     * Arm the periodic thermal/governor tick. Under TickMode::Lazy the
     * ticker carries this platform's fast-forward hook: a run of ticks
     * that would each return at once (nothing re-anchors, no search
     * or band exit is due) is applied in one step instead of being
     * dispatched, with the same counters and the same event order.
     * The eager twin dispatches every tick.
     */
    void start();

    /** Register the clock observer (at most one; nullptr for none).
     *  It must outlive the platform's ticks. */
    void
    setClockObserver(ClockObserver* observer)
    {
        clockObserver = observer;
    }

    /** Simulate a node-level power-delivery fault: cap all its GPUs. */
    void capNodePower(int node, Watts watts_per_gpu);

    /**
     * Inject (or clear, with factor 1.0) a performance derate on one
     * GPU; notifies the clock observer so in-flight work is re-timed.
     */
    void setGpuSlowdown(int gpu_id, double factor);

    /** One thermal/governor step (also used directly by tests). */
    void tick();

    /** Reset all per-GPU statistics at the current time (warmup end). */
    void resetStats();

    /** Close statistics intervals at the current time. */
    void finishStats();

    sim::Simulator& simulator() { return sim; }

  private:
    /** sim::TickerSkip: the next ticks that return at once, and
     *  applying k of them (ticks, closed-form clock, last tick time). */
    std::uint64_t quietFirings() const override;
    void skipFirings(std::uint64_t k) override;

    void eagerTick();
    void lazyTick();
    /** Run device @p id's governor at tick @p n (lazy mode). */
    void evaluate(int id, std::int64_t n, double now);
    /** Hand @p node's devices the temperatures of the ticks since their
     *  last fold, as one closed-form run each. */
    void foldTemperatures(int node);
    void foldAllTemperatures();
    /** Simulated time of tick @p n, for ticks since the spacing last
     *  changed. */
    sim::Tick tickTime(std::int64_t n) const;

    sim::Simulator& sim;
    std::vector<std::unique_ptr<Gpu>> devices;
    ThermalModel thermalNet;
    int nodes;
    TickMode mode;
    /** Per-tick power snapshot, sized once so tick() never allocates. */
    std::vector<Watts> powers;
    ClockObserver* clockObserver = nullptr;
    bool started = false;
    /** The ticker's period, set by start(). */
    sim::Tick tickPeriod = 0;
    GovernorCounters work;

    // ---- lazy mode -------------------------------------------------------
    /** Nodes with a device whose (a) inputs changed since the last
     *  tick or whose (b) last evaluation moved its governor: either
     *  re-anchors the node. */
    MarkedSet changed;
    /** Some device's evaluation at the last tick left its governor
     *  as it was: its band exit is found at this tick. */
    bool quietAtLastTick = false;
    /** Tick and governor band of each device's last quiet evaluation. */
    std::vector<std::int64_t> evalTick;
    std::vector<int> evalBand;
    /** (c): tick at which each device leaves its band, -1 never. */
    std::vector<std::int64_t> exitTick;
    /** Lower bound on every exitTick >= 0. */
    std::int64_t nextExit;
    /** Per node: the last tick whose temperature its devices' stats
     *  hold. */
    std::vector<std::int64_t> foldedTick;
    /** Ticks since uniformFrom came every tickSpacing from
     *  uniformFromAt. */
    std::int64_t uniformFrom = 0;
    sim::Tick uniformFromAt;
    sim::Tick tickSpacing = 0;
    sim::Tick lastTickAt;
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_PLATFORM_HH
