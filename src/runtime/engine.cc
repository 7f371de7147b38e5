#include "runtime/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace runtime {

namespace {

inline std::uint64_t
instanceKey(int group_id, std::uint64_t seq)
{
    return (static_cast<std::uint64_t>(group_id) << 32) | seq;
}

inline std::uint64_t
channelKey(int src, int dst)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
}

/** First entry of a key-sorted (key, value) vector not below @p key. */
template <typename Entries>
auto
keyLowerBound(Entries& entries, std::uint64_t key)
{
    return std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
}

} // namespace

TrainingEngine::TrainingEngine(hw::Platform& platform,
                               net::FlowNetwork& netw,
                               coll::CollectiveEngine& collectives,
                               const ProgramBuilder& program_builder,
                               const EngineOptions& options)
    : plat(platform), network(netw), coll(collectives),
      builder(program_builder), opts(options)
{
    Problems problems;
    addIterationProblems(problems, opts.warmupIterations,
                         opts.measuredIterations);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    plat.setClockObserver(this);
    network.setTrafficObserver(this);
}

double
TrainingEngine::avgIterationSeconds() const
{
    CHARLLM_ASSERT(!measured.empty(), "no measured iterations");
    double total = 0.0;
    for (double t : measured)
        total += t;
    return total / static_cast<double>(measured.size());
}

void
TrainingEngine::emitTrace(int dev, hw::KernelClass cls, const char* name,
                          double start, double dur)
{
    if (trace)
        trace(dev, cls, name, start, dur);
}

void
TrainingEngine::run()
{
    totalIterations = opts.warmupIterations + opts.measuredIterations;
    iteration = 0;
    maxCommitted = 0;
    committedDurations.assign(
        static_cast<std::size_t>(totalIterations), 0.0);
    iterSpans.reserve(iterSpans.size() +
                      static_cast<std::size_t>(totalIterations));
    if (opts.warmupIterations == 0)
        measureStart = plat.simulator().nowSeconds();
    startIteration();
    plat.simulator().run();
    if (!finished) {
        for (int dev = 0; dev < program.worldSize(); ++dev) {
            const auto& st = ranks[static_cast<std::size_t>(dev)];
            if (!st.done) {
                const auto& ops =
                    program.deviceOps[static_cast<std::size_t>(dev)];
                std::size_t at = st.pc > 0 ? st.pc - 1 : 0;
                CHARLLM_FATAL("schedule deadlock: device ", dev,
                              " stuck at op ", at, " (",
                              at < ops.size() ? ops[at].name : "end",
                              ") of ", ops.size());
            }
        }
        CHARLLM_PANIC("engine did not finish but all ranks done");
    }
    plat.finishStats();
}

void
TrainingEngine::startIteration()
{
    const std::uint64_t placement = builder.placementVersion();
    if (!builder.iterationInvariant() || builtPlacement != placement) {
        program = builder.build(iteration);
        builtPlacement = placement;
    }
    int world = program.worldSize();
    CHARLLM_ASSERT(world == plat.numGpus(),
                   "program world size != platform size");
    CHARLLM_ASSERT(openInstances.empty(),
                   "collective instances leaked across iterations");
    ranks.assign(static_cast<std::size_t>(world), RankState());
    inFlight.assign(static_cast<std::size_t>(world), std::nullopt);
    numGroups = program.groups.size();
    groupSeq.assign(static_cast<std::size_t>(world) * numGroups, 0);
    resetChannels();
    if (pendingStall.size() != static_cast<std::size_t>(world))
        pendingStall.assign(static_cast<std::size_t>(world), 0.0);
    ranksRemaining = world;
    iterationActive = true;
    iterStart = plat.simulator().nowSeconds();
    if (critpath != nullptr) {
        critpath->beginIteration(iteration,
                                 iteration < opts.warmupIterations,
                                 iterStart);
    }
    double restart = pendingRestartSec;
    pendingRestartSec = 0.0;
    if (restart > 0.0) {
        // Checkpoint/restart pause: every rank begins late, and the
        // pause counts into this iteration's measured duration.
        plat.simulator().schedule(sim::toTicks(restart),
                                  [this, world, e = epoch] {
            if (e != epoch)
                return;
            for (int dev = 0; dev < world; ++dev)
                advance(dev);
        });
    } else {
        for (int dev = 0; dev < world; ++dev)
            advance(dev);
    }
}

void
TrainingEngine::finishIteration()
{
    double now = plat.simulator().nowSeconds();
    double dur = now - iterStart;
    iterationActive = false;
    if (critpath != nullptr)
        critpath->endIteration(now, /*aborted=*/false);
    iterSpans.push_back(IterationSpan{
        iteration, iteration < opts.warmupIterations, iterStart, now,
        /*replay=*/iteration < maxCommitted, /*aborted=*/false});
    committedDurations[static_cast<std::size_t>(iteration)] = dur;
    if (iteration == opts.warmupIterations - 1) {
        // Warmup complete: discard thermal-settling statistics, as the
        // paper discards its first 10 iterations. (A rollback across
        // this boundary re-arms measurement at the replayed commit.)
        plat.resetStats();
        measureStart = now;
    }
    ++iteration;
    maxCommitted = std::max(maxCommitted, iteration);
    bool last = iteration >= totalIterations;
    double pause = 0.0;
    if (resil != nullptr)
        pause = resil->onIterationCommitted(iteration - 1, iterStart,
                                            now, last);
    CHARLLM_ASSERT(pause >= 0.0, "negative boundary pause: ", pause);
    if (last) {
        CHARLLM_ASSERT(pause == 0.0,
                       "boundary pause after the last iteration");
        measured.assign(
            committedDurations.begin() + opts.warmupIterations,
            committedDurations.end());
        finished = true;
        return;
    }
    if (pause > 0.0) {
        // Cluster-quiescent boundary pause (e.g. a sync checkpoint
        // write): no kernels run and the pause sits between iteration
        // spans, not inside either one.
        pendingStart = plat.simulator().schedule(
            sim::toTicks(pause), [this, e = epoch] {
            if (e != epoch)
                return;
            startIteration();
        });
    } else {
        startIteration();
    }
}

void
TrainingEngine::advance(int dev)
{
    auto& st = ranks[static_cast<std::size_t>(dev)];
    CHARLLM_ASSERT(!st.done, "advancing a finished rank");
    const auto& ops = program.deviceOps[static_cast<std::size_t>(dev)];
    while (st.pc < ops.size()) {
        const Op& op = ops[st.pc];
        ++st.pc;
        switch (op.type) {
          case OpType::Compute:
            startCompute(dev, op);
            return;
          case OpType::Collective:
            joinCollective(dev, op);
            if (!op.async)
                return;
            break;
          case OpType::Send:
            issueSend(dev, op);
            break;
          case OpType::Recv:
            if (!tryRecv(dev, op))
                return;
            break;
          case OpType::Drain:
            if (st.outstandingAsync > 0) {
                st.draining = true;
                return;
            }
            break;
        }
    }
    rankDone(dev);
}

double
TrainingEngine::computeRate(int dev) const
{
    const hw::Gpu& gpu = plat.gpu(dev);
    double rate = gpu.clockRel().value();
    if (gpu.commActive())
        rate /= hw::calib::kOverlapComputePenalty;
    return std::max(rate, 1e-3);
}

sim::EventHandle
TrainingEngine::scheduleComputeDone(int dev, double delay_sec)
{
    // Compute completions are the only engine events that touch a
    // single device; routing them to the device's node domain is what
    // lets partitioned dispatch batch same-node work. All other
    // engine events stay in domain 0 (they couple devices).
    return plat.simulator().scheduleInDomain(
        1 + plat.nodeOf(dev), sim::toTicks(delay_sec),
        [this, dev] { finishCompute(dev); });
}

void
TrainingEngine::moveComputeDone(InFlightCompute& fl)
{
    // In place: the order cancel() + scheduleComputeDone would give.
    bool moved = plat.simulator().reschedule(
        fl.completion, sim::toTicks(fl.remainingNominal / fl.rate));
    CHARLLM_ASSERT(moved, "in-flight compute without a pending completion");
}

void
TrainingEngine::startCompute(int dev, const Op& op)
{
    hw::Gpu& gpu = plat.gpu(dev);
    double now = plat.simulator().nowSeconds();
    hw::ComputeWork work{op.cls, op.flops, op.hbmBytes, op.kernels};
    double nominal =
        gpu.computeModel().duration(work, ClockRel(1.0)).value();
    double sm_util = gpu.computeModel().smUtilization(work);

    InFlightCompute fl;
    fl.remainingNominal = nominal;
    fl.rate = computeRate(dev);
    double& owed = pendingStall[static_cast<std::size_t>(dev)];
    if (owed > 0.0) {
        // Charge stalls that hit while no compute was in flight.
        fl.remainingNominal += owed * fl.rate;
        owed = 0.0;
    }
    fl.lastUpdate = now;
    fl.startTime = now;
    fl.cls = op.cls;
    fl.name = op.name;
    if (critpath != nullptr) {
        fl.causeRec = critpath->head(dev);
        fl.clockRelSnap = gpu.clockRel().value();
        fl.reasonSnap = gpu.throttleReason();
    }
    fl.gpuToken = gpu.kernelBegin(op.cls, sm_util, now);
    fl.completion =
        scheduleComputeDone(dev, fl.remainingNominal / fl.rate);
    inFlight[static_cast<std::size_t>(dev)] = std::move(fl);
}

void
TrainingEngine::finishCompute(int dev)
{
    auto& slot = inFlight[static_cast<std::size_t>(dev)];
    CHARLLM_ASSERT(slot.has_value(), "spurious compute completion");
    double now = plat.simulator().nowSeconds();
    hw::Gpu& gpu = plat.gpu(dev);
    gpu.kernelEnd(slot->gpuToken, now);
    gpu.addKernelTime(slot->cls, Seconds(now - slot->startTime));
    emitTrace(dev, slot->cls, slot->name, slot->startTime,
              now - slot->startTime);
    if (critpath != nullptr) {
        foldThrottle(*slot, dev, now);
        critpath->onComputeDone(dev, slot->startTime, now, slot->name,
                                slot->causeRec, slot->slow);
    }
    slot.reset();
    advance(dev);
}

void
TrainingEngine::foldThrottle(InFlightCompute& fl, int dev, double now)
{
    double elapsed = now - fl.lastUpdate;
    if (elapsed > 0.0 && fl.clockRelSnap < 1.0) {
        // At relative clock c, a window of `elapsed` wall seconds did
        // c*elapsed of full-clock work: the elongation this window
        // contributed is (1-c)*elapsed, charged to the DVFS reason
        // that held during it.
        double lost = elapsed * (1.0 - fl.clockRelSnap);
        switch (fl.reasonSnap) {
          case hw::ThrottleReason::Thermal:
            fl.slow[0] += lost;
            break;
          case hw::ThrottleReason::PowerCap:
            fl.slow[1] += lost;
            break;
          case hw::ThrottleReason::Fault:
            fl.slow[2] += lost;
            break;
          case hw::ThrottleReason::None:
            break;
        }
    }
    const hw::Gpu& gpu = plat.gpu(dev);
    fl.clockRelSnap = gpu.clockRel().value();
    fl.reasonSnap = gpu.throttleReason();
}

void
TrainingEngine::retimeCompute(int dev)
{
    auto& slot = inFlight[static_cast<std::size_t>(dev)];
    if (!slot.has_value())
        return;
    double now = plat.simulator().nowSeconds();
    if (critpath != nullptr)
        foldThrottle(*slot, dev, now);
    double elapsed = now - slot->lastUpdate;
    slot->remainingNominal =
        std::max(0.0, slot->remainingNominal - elapsed * slot->rate);
    slot->rate = computeRate(dev);
    slot->lastUpdate = now;
    moveComputeDone(*slot);
}

void
TrainingEngine::joinCollective(int dev, const Op& op)
{
    auto& seq = groupSeq[static_cast<std::size_t>(dev) * numGroups +
                         static_cast<std::size_t>(op.groupId)];
    std::uint64_t key = instanceKey(op.groupId, seq++);
    CollectiveInstance& inst = openInstance(key);
    double now = plat.simulator().nowSeconds();
    hw::Gpu& gpu = plat.gpu(dev);
    std::uint64_t token = gpu.kernelBegin(op.cls, 0.0, now);
    inst.arrivals.emplace_back(dev, now);
    inst.tokens.emplace_back(dev, token);
    if (critpath != nullptr)
        inst.causes.push_back(critpath->head(dev));
    inst.async = op.async;
    inst.cls = op.cls;
    inst.name = op.name;
    inst.ckind = op.ckind;
    inst.groupId = op.groupId;
    inst.bytes = op.bytes;
    inst.chunked = op.chunked;
    inst.messages = op.messages;
    inst.topologyAware = op.topologyAware;
    if (op.async)
        ++ranks[static_cast<std::size_t>(dev)].outstandingAsync;

    int expected =
        program.groupExpected.empty()
            ? static_cast<int>(
                  program
                      .groups[static_cast<std::size_t>(op.groupId)]
                      .size())
            : program.groupExpected[static_cast<std::size_t>(
                  op.groupId)];
    if (static_cast<int>(inst.arrivals.size()) == expected) {
        if (fold != nullptr && inst.async &&
            expected <
                static_cast<int>(
                    program.groups[static_cast<std::size_t>(op.groupId)]
                        .size())) {
            // Folded async group: in the full run the LAST logical
            // member launches, by which time the earlier members —
            // the representative among them — have already continued
            // past their join (usually into overlapped compute). A
            // zero-delay event fires after this device's synchronous
            // continuation, so the overlap penalty samples the same
            // state the full run would.
            plat.simulator().schedule(0, [this, key, e = epoch] {
                if (e != epoch)
                    return;
                launchCollective(key);
            });
        } else {
            launchCollective(key);
        }
    }
}

void
TrainingEngine::launchCollective(std::uint64_t key)
{
    auto it = keyLowerBound(openInstances, key);
    CHARLLM_ASSERT(it != openInstances.end() && it->first == key,
                   "launching unknown collective instance");
    const CollectiveInstance& inst = instancePool[it->second];
    const auto& group =
        program.groups[static_cast<std::size_t>(inst.groupId)];
    coll::CollectiveRequest& req = request;
    req.kind = inst.ckind;
    req.ranks.assign(group.begin(), group.end());
    req.bytes = inst.bytes;
    req.chunked = inst.chunked;
    req.messages = inst.messages;
    req.topologyAware = inst.topologyAware;
    // Overlapped collectives contend with concurrent compute for
    // memory/SM resources (paper Sec. 4.3).
    if (inst.async) {
        for (int member : group) {
            int m = fold != nullptr ? fold->repOf(member) : member;
            if (plat.gpu(m).computeActive()) {
                req.bytes *= hw::calib::kOverlapCommPenalty;
                break;
            }
        }
    }
    // Flows cannot be cancelled; on abort the completion arrives
    // from a dead epoch and drops itself here.
    coll.run(req, [this, key, e = epoch] {
        if (e != epoch)
            return;
        onCollectiveDone(key);
    });
}

TrainingEngine::CollectiveInstance&
TrainingEngine::openInstance(std::uint64_t key)
{
    auto it = keyLowerBound(openInstances, key);
    if (it != openInstances.end() && it->first == key)
        return instancePool[it->second];
    std::uint32_t slot;
    if (!freeInstances.empty()) {
        slot = freeInstances.back();
        freeInstances.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(instancePool.size());
        instancePool.emplace_back();
    }
    openInstances.insert(it, {key, slot});
    return instancePool[slot];
}

void
TrainingEngine::releaseInstance(std::uint32_t slot)
{
    CollectiveInstance& inst = instancePool[slot];
    inst.arrivals.clear();
    inst.tokens.clear();
    inst.causes.clear();
    freeInstances.push_back(slot);
}

void
TrainingEngine::onCollectiveDone(std::uint64_t key)
{
    auto it = keyLowerBound(openInstances, key);
    CHARLLM_ASSERT(it != openInstances.end() && it->first == key,
                   "unknown collective instance");
    // Closed now, recycled only after the member loop below: advancing
    // members may open new instances, which must not reuse this one.
    const std::uint32_t slot = it->second;
    openInstances.erase(it);
    const CollectiveInstance& inst = instancePool[slot];
    double now = plat.simulator().nowSeconds();

    for (std::size_t i = 0; i < inst.arrivals.size(); ++i) {
        int dev = inst.arrivals[i].first;
        double arr = inst.arrivals[i].second;
        hw::Gpu& gpu = plat.gpu(dev);
        // Token order matches arrival order. Per-rank collective time
        // runs from that rank's arrival to the group's completion, so
        // stragglers inflate their peers' communication time exactly
        // as NCCL kernel timings do on real systems.
        gpu.kernelEnd(inst.tokens[i].second, now);
        gpu.addKernelTime(inst.cls, Seconds(now - arr));
        emitTrace(dev, inst.cls, inst.name, arr, now - arr);
        // Contention relief: concurrent compute regains full rate.
        retimeCompute(dev);
    }
    // Record before any advance: ops issued downstream must be able
    // to adopt this completion as their causal head.
    int rec = -1;
    if (critpath != nullptr) {
        rec = critpath->onCollectiveDone(inst.arrivals, inst.causes,
                                         now, inst.name,
                                         groupSpansNodes(inst.groupId));
    }
    for (const auto& [dev, arr] : inst.arrivals) {
        auto& st = ranks[static_cast<std::size_t>(dev)];
        if (inst.async) {
            CHARLLM_ASSERT(st.outstandingAsync > 0,
                           "async underflow");
            --st.outstandingAsync;
            if (st.draining && st.outstandingAsync == 0) {
                st.draining = false;
                // The drain barrier was blocked on this completion.
                if (critpath != nullptr)
                    critpath->setHead(dev, rec);
                advance(dev);
            }
        } else {
            // Synchronous members resume only now.
            if (critpath != nullptr)
                critpath->setHead(dev, rec);
            advance(dev);
        }
    }
    releaseInstance(slot);
}

void
TrainingEngine::issueSend(int dev, const Op& op)
{
    double now = plat.simulator().nowSeconds();
    // PP peers live inside the representative replica under collapse,
    // so the peer's physical id is well-defined; channel keys and
    // request ranks are physical (abortIteration decodes devices from
    // channel keys).
    int peer = fold != nullptr ? fold->repOf(op.peerDevice)
                               : op.peerDevice;
    std::uint64_t ckey = channelKey(dev, peer);
    std::uint64_t seq = channel(ckey).sendSeq++;

    hw::Gpu& gpu = plat.gpu(dev);
    std::uint64_t token = gpu.kernelBegin(hw::KernelClass::SendRecv,
                                          0.0, now);
    ++ranks[static_cast<std::size_t>(dev)].outstandingAsync;
    std::uint64_t sid = sendCounter++;
    sends.push_back(OutstandingSend{
        sid, dev, peer, ckey, seq, now, token, op.name,
        critpath != nullptr ? critpath->head(dev) : -1});

    coll::CollectiveRequest& req = request;
    req.kind = coll::CollectiveKind::SendRecv;
    req.ranks.assign({dev, peer});
    req.bytes = op.bytes;
    req.chunked = op.chunked;
    req.messages = 1;
    req.topologyAware = false;
    coll.run(req, [this, sid, e = epoch] {
        if (e != epoch)
            return;
        onSendDone(sid);
    });
}

void
TrainingEngine::onSendDone(std::uint64_t send_id)
{
    auto it = std::find_if(sends.begin(), sends.end(),
                           [send_id](const OutstandingSend& s) {
        return s.id == send_id;
    });
    CHARLLM_ASSERT(it != sends.end(), "unknown send ", send_id);
    const OutstandingSend snd = *it;
    sends.erase(it);
    const int dev = snd.dev;
    const int dst = snd.dst;
    const double now = snd.startSec;
    double done = plat.simulator().nowSeconds();
    // Record before any advance (sender drain-unblock or receiver
    // wake): the flow's completion is their causal head. A receiver
    // already blocked on this sequence number marks the
    // pipeline-bubble window from its recv posting to the flow start.
    int rec = -1;
    if (critpath != nullptr) {
        double posted = -1.0;
        const Channel& chPeek = channel(snd.channel);
        if (chPeek.waiting && std::get<0>(*chPeek.waiting) == snd.seq)
            posted = std::get<1>(*chPeek.waiting);
        rec = critpath->onP2PDone(dev, dst, now, done, snd.name,
                                  snd.cause, posted,
                                  plat.nodeOf(dev) != plat.nodeOf(dst));
    }
    // Sender side bookkeeping.
    hw::Gpu& src_gpu = plat.gpu(dev);
    src_gpu.kernelEnd(snd.token, done);
    src_gpu.addKernelTime(hw::KernelClass::SendRecv, Seconds(done - now));
    emitTrace(dev, hw::KernelClass::SendRecv, snd.name, now, done - now);
    retimeCompute(dev);
    auto& sst = ranks[static_cast<std::size_t>(dev)];
    CHARLLM_ASSERT(sst.outstandingAsync > 0, "send underflow");
    --sst.outstandingAsync;
    if (sst.draining && sst.outstandingAsync == 0) {
        sst.draining = false;
        if (critpath != nullptr)
            critpath->setHead(dev, rec);
        advance(dev);
    }
    // Receiver side: wake a blocked recv or buffer the arrival.
    Channel& ch = channel(snd.channel);
    if (ch.waiting && std::get<0>(*ch.waiting) == snd.seq) {
        auto [wseq, arr, rx_token] = *ch.waiting;
        ch.waiting.reset();
        hw::Gpu& dst_gpu = plat.gpu(dst);
        dst_gpu.kernelEnd(rx_token, done);
        dst_gpu.addKernelTime(hw::KernelClass::SendRecv,
                              Seconds(done - arr));
        emitTrace(dst, hw::KernelClass::SendRecv, "recv", arr,
                  done - arr);
        if (critpath != nullptr)
            critpath->setHead(dst, rec);
        advance(dst);
    } else {
        ch.ready.emplace_back(snd.seq, done);
    }
}

TrainingEngine::Channel&
TrainingEngine::channel(std::uint64_t key)
{
    auto it = keyLowerBound(channels, key);
    if (it == channels.end() || it->first != key)
        it = channels.insert(it, {key, Channel()});
    return it->second;
}

void
TrainingEngine::resetChannels()
{
    for (auto& [key, ch] : channels) {
        (void)key;
        ch.sendSeq = 0;
        ch.recvSeq = 0;
        ch.ready.clear();
        ch.waiting.reset();
    }
}

bool
TrainingEngine::tryRecv(int dev, const Op& op)
{
    int peer = fold != nullptr ? fold->repOf(op.peerDevice)
                               : op.peerDevice;
    std::uint64_t ckey = channelKey(peer, dev);
    Channel& ch = channel(ckey);
    std::uint64_t seq = ch.recvSeq++;
    auto it = std::find_if(ch.ready.begin(), ch.ready.end(),
                           [seq](const auto& r) { return r.first == seq; });
    if (it != ch.ready.end()) {
        // Data already arrived: the receive completes immediately.
        ch.ready.erase(it);
        return true;
    }
    CHARLLM_ASSERT(!ch.waiting.has_value(),
                   "multiple blocked receivers on one channel");
    double now = plat.simulator().nowSeconds();
    std::uint64_t token = plat.gpu(dev).kernelBegin(
        hw::KernelClass::SendRecv, 0.0, now);
    ch.waiting = std::make_tuple(seq, now, token);
    return false;
}

void
TrainingEngine::injectTransientStall(int dev, Seconds stall)
{
    const double stallSec = stall.value();
    CHARLLM_ASSERT(stallSec >= 0.0, "negative stall: ", stallSec);
    CHARLLM_ASSERT(dev >= 0 && dev < plat.numGpus(),
                   "device id ", dev, " out of range");
    if (stallSec <= 0.0)
        return;
    if (pendingStall.size() !=
        static_cast<std::size_t>(plat.numGpus())) {
        pendingStall.assign(static_cast<std::size_t>(plat.numGpus()),
                            0.0);
    }
    if (inFlight.size() != static_cast<std::size_t>(plat.numGpus()) ||
        !inFlight[static_cast<std::size_t>(dev)].has_value()) {
        pendingStall[static_cast<std::size_t>(dev)] += stallSec;
        return;
    }
    auto& slot = inFlight[static_cast<std::size_t>(dev)];
    // Extend the in-flight kernel in place: fold progress to now,
    // then add the stall at the current rate so the wall-clock pause
    // is exactly the stall duration.
    double now = plat.simulator().nowSeconds();
    if (critpath != nullptr)
        foldThrottle(*slot, dev, now);
    double elapsed = now - slot->lastUpdate;
    slot->remainingNominal =
        std::max(0.0, slot->remainingNominal - elapsed * slot->rate);
    slot->remainingNominal += stallSec * slot->rate;
    slot->lastUpdate = now;
    moveComputeDone(*slot);
}

void
TrainingEngine::notifyFailStop(Seconds restart_cost)
{
    const double restartCostSec = restart_cost.value();
    CHARLLM_ASSERT(restartCostSec >= 0.0,
                   "negative restart cost: ", restartCostSec);
    // Overlapping fail-stops before the same boundary share one
    // restart window: the cluster restarts once, paying the slowest
    // recovery, not the serialized sum.
    pendingRestartSec = std::max(pendingRestartSec, restartCostSec);
}

void
TrainingEngine::abortIteration(int rollback, double resume_at_s)
{
    CHARLLM_ASSERT(!finished, "abort after the run completed");
    CHARLLM_ASSERT(rollback >= 0 && rollback <= iteration,
                   "rollback of ", rollback, " with only ", iteration,
                   " committed iterations");
    double now = plat.simulator().nowSeconds();
    CHARLLM_ASSERT(resume_at_s >= now, "resume in the past: ",
                   resume_at_s, " < ", now);
    ++epoch;
    pendingStart.cancel();
    if (iterationActive) {
        iterationActive = false;
        int world = program.worldSize();
        for (int dev = 0; dev < world; ++dev) {
            auto& slot = inFlight[static_cast<std::size_t>(dev)];
            if (!slot.has_value())
                continue;
            slot->completion.cancel();
            hw::Gpu& gpu = plat.gpu(dev);
            gpu.kernelEnd(slot->gpuToken, now);
            gpu.addKernelTime(slot->cls,
                              Seconds(now - slot->startTime));
            emitTrace(dev, slot->cls, slot->name, slot->startTime,
                      now - slot->startTime);
            slot.reset();
        }
        for (const auto& [key, slot] : openInstances) {
            (void)key;
            const CollectiveInstance& inst = instancePool[slot];
            for (std::size_t i = 0; i < inst.arrivals.size(); ++i) {
                int dev = inst.arrivals[i].first;
                double arr = inst.arrivals[i].second;
                hw::Gpu& gpu = plat.gpu(dev);
                gpu.kernelEnd(inst.tokens[i].second, now);
                gpu.addKernelTime(inst.cls, Seconds(now - arr));
                emitTrace(dev, inst.cls, inst.name, arr, now - arr);
            }
            releaseInstance(slot);
        }
        openInstances.clear();
        for (const OutstandingSend& snd : sends) {
            hw::Gpu& gpu = plat.gpu(snd.dev);
            gpu.kernelEnd(snd.token, now);
            gpu.addKernelTime(hw::KernelClass::SendRecv,
                              Seconds(now - snd.startSec));
            emitTrace(snd.dev, hw::KernelClass::SendRecv, snd.name,
                      snd.startSec, now - snd.startSec);
        }
        sends.clear();
        for (auto& [ckey, ch] : channels) {
            if (!ch.waiting.has_value())
                continue;
            auto [wseq, arr, token] = *ch.waiting;
            (void)wseq;
            int dst = static_cast<int>(ckey & 0xffffffffu);
            hw::Gpu& gpu = plat.gpu(dst);
            gpu.kernelEnd(token, now);
            gpu.addKernelTime(hw::KernelClass::SendRecv,
                              Seconds(now - arr));
            emitTrace(dst, hw::KernelClass::SendRecv, "recv", arr,
                      now - arr);
            ch.waiting.reset();
        }
        resetChannels();
        iterSpans.push_back(IterationSpan{
            iteration, iteration < opts.warmupIterations, iterStart,
            now, /*replay=*/iteration < maxCommitted,
            /*aborted=*/true});
        if (critpath != nullptr)
            critpath->endIteration(now, /*aborted=*/true);
    } else {
        // Failure detected inside a boundary pause: nothing was in
        // flight, the cancelled pendingStart is the only teardown.
        sends.clear();
        resetChannels();
    }
    std::fill(pendingStall.begin(), pendingStall.end(), 0.0);
    pendingRestartSec = 0.0;
    iteration -= rollback;
    pendingStart = plat.simulator().schedule(
        sim::toTicks(resume_at_s - now), [this, e = epoch] {
        if (e != epoch)
            return;
        startIteration();
    });
}

bool
TrainingEngine::groupSpansNodes(int groupId) const
{
    const auto& group =
        program.groups[static_cast<std::size_t>(groupId)];
    if (group.empty())
        return false;
    int per = plat.gpusPerNode();
    int node0 = group.front() / per;
    for (int member : group) {
        if (member / per != node0)
            return true;
    }
    return false;
}

void
TrainingEngine::rankDone(int dev)
{
    auto& st = ranks[static_cast<std::size_t>(dev)];
    CHARLLM_ASSERT(st.outstandingAsync == 0,
                   "rank finished with outstanding async work");
    st.done = true;
    if (--ranksRemaining == 0)
        finishIteration();
}

} // namespace runtime
} // namespace charllm
