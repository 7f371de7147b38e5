#include "resil/recovery.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace resil {

std::vector<double>
SparePool::replenishSchedule(Seconds horizon,
                             std::uint64_t seed) const
{
    std::vector<double> arrivals;
    if (replenishMean.value() <= 0.0)
        return arrivals;
    Rng rng(seed);
    double t = 0.0;
    for (;;) {
        double u = rng.uniform();
        t += std::max(-replenishMean.value() * std::log(1.0 - u),
                      1e-9);
        if (t >= horizon.value())
            break;
        arrivals.push_back(t);
    }
    return arrivals;
}

void
addRecoveryProblems(Problems& problems, double interval_sec,
                    double quiesce_sec, const RecoveryConfig& config,
                    double horizon_sec)
{
    double replenish = config.spares.replenishMean.value();
    require(problems, !std::isnan(interval_sec),
            "checkpoint.intervalSec must not be NaN");
    require(problems, !std::isnan(replenish),
            "recovery.spares.replenishMean must not be NaN");
    addExpansionProblems(problems, "recovery.spares.replenishMean",
                         replenish, 1, horizon_sec);
    require(problems, quiesce_sec >= 0.0 && std::isfinite(quiesce_sec),
            "checkpoint.quiesceSec must be finite and >= 0 (got ",
            quiesce_sec, ")");
    require(problems, config.spares.capacity >= 0,
            "recovery.spares.capacity must be >= 0 (got ",
            config.spares.capacity, ")");
}

void
addCheckpointClockProblems(Problems& problems, const CheckpointModel& ckpt,
                           bool async, double quiesce_sec,
                           double horizon_sec)
{
    double write = ckpt.writeSeconds().value();
    bool write_fits = sim::fitsTick(write);
    require(problems, write_fits, "a checkpoint write of ", write,
            " s (checkpoint.storeGBps ",
            ckpt.storagePath().storeBw.value() / 1e9,
            ") does not fit the event clock (1.8e10 s)");
    // The latest commit startCheckpointPause schedules: a write started
    // at the horizon, after an async checkpoint's quiesce.
    double quiesce = async ? quiesce_sec : 0.0;
    require(problems,
            !write_fits || sim::fitsTick(horizon_sec + quiesce + write),
            async ? "an async" : "a sync", " checkpoint.quiesceSec of ",
            quiesce, " s plus its ", write,
            " s write past resilience.horizonSec (", horizon_sec,
            " s) does not fit the event clock (1.8e10 s)");
}

RecoveryManager::RecoveryManager(sim::Simulator& simulator,
                                 hw::Platform& platform,
                                 net::FlowNetwork& netw,
                                 runtime::TrainingEngine& eng,
                                 const CheckpointModel& checkpoint_model,
                                 Seconds checkpoint_interval,
                                 bool async_checkpoint, Seconds quiesce,
                                 const RecoveryConfig& config,
                                 std::vector<FailureEvent> schedule,
                                 Seconds horizon, std::uint64_t seed)
    : sim(simulator), plat(platform), network(netw), engine(eng),
      ckpt(checkpoint_model), ckptIntervalSec(checkpoint_interval.value()),
      ckptAsync(async_checkpoint), quiesceSec(quiesce.value()), cfg(config),
      plan(std::move(schedule)), horizonSec(horizon.value()),
      scheduleSeed(seed)
{
    Problems problems;
    addHorizonProblems(problems, horizonSec);
    addRecoveryProblems(problems, ckptIntervalSec, quiesceSec, cfg,
                        horizonSec);
    addCheckpointClockProblems(problems, ckpt, ckptAsync, quiesceSec,
                               horizonSec);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    // The config's interval (<= 0 selects Young/Daly) arrives resolved.
    CHARLLM_ASSERT(ckptIntervalSec > 0.0,
                   "checkpoint interval must be positive (use "
                   "youngDalyInterval or an explicit value)");
    sparesFree = cfg.spares.capacity;
    // The depot's arrival stream is salted off the failure-schedule
    // seed so pool economics and fault timing stay independent draws.
    replenishPlan = cfg.spares.replenishSchedule(
        Seconds(horizonSec), scheduleSeed ^ 0x9e3779b97f4a7c15ULL);
    engine.setResilienceController(this);
    armNextFailure();
    armNextReplenish();
}

void
RecoveryManager::attachMapper(parallel::RankMapper& m)
{
    mapper = &m;
}

void
RecoveryManager::attachElastic(parallel::RankMapper& m,
                               parallel::ElasticWorld& world)
{
    CHARLLM_ASSERT(cfg.dryPolicy == DryPoolPolicy::ElasticShrink,
                   "attachElastic needs DryPoolPolicy::ElasticShrink");
    mapper = &m;
    eworld = &world;
    ledger.setCapacity(0.0, 1.0, activeGpuCount());
}

sim::EventHandle
RecoveryManager::scheduleAt(double when_s, sim::EventFn fn)
{
    sim::EventHandle h = sim.scheduleAt(sim::toTicks(when_s),
                                        std::move(fn));
    timers.push_back(h);
    return h;
}

void
RecoveryManager::armNextFailure()
{
    if (nextFailure >= plan.size())
        return;
    double when =
        std::max(plan[nextFailure].timeSec, sim.nowSeconds());
    std::size_t index = nextFailure;
    armedFailure = sim.scheduleAt(sim::toTicks(when), [this, index] {
        onFailure(index);
    });
}

void
RecoveryManager::onFailure(std::size_t index)
{
    if (runDone)
        return;
    FailureEvent ev = plan[index];
    nextFailure = index + 1;
    armNextFailure();
    ++runStats.failuresInjected;

    if (ev.kind == FailureKind::LinkTransient) {
        onTransientLink(ev);
        return;
    }

    double now = sim.nowSeconds();
    // Whether a collective was live at the instant of the fault
    // decides later (at detection) if shared gradient state is torn
    // and a shrink must restore the last checkpoint.
    bool mid_collective = engine.collectiveInFlight();
    std::vector<int> gpus;
    if (ev.kind == FailureKind::GpuFatal) {
        gpus.push_back(ev.target);
    } else {
        if (ev.kind != FailureKind::NodeFatal)
            ++runStats.domainFaults;
        int per_node = network.topology().gpusPerNode();
        for (int g = ev.target * per_node;
             g < (ev.target + ev.nodeSpan) * per_node; ++g)
            gpus.push_back(g);
    }
    if (eworld != nullptr) {
        // GPUs whose replica already left the world cannot hurt the
        // shrunk run again; drop them from the event.
        std::vector<int> live;
        for (int g : gpus)
            if (!eworld->replicaDead(dpIdxOfGpu(g)))
                live.push_back(g);
        if (live.empty()) {
            ++runStats.failuresAbsorbed;
            return;
        }
        gpus.swap(live);
    }
    for (int g : gpus)
        plat.setGpuSlowdown(g, hw::calib::kFailStopDerate);
    if (recovering) {
        // The cluster is already down for repair (or mid-reconfig):
        // the same window covers this fault, no extra rollback.
        absorbFatal(gpus);
        return;
    }
    ++runStats.fatalFaults;
    double detect =
        ev.kind == FailureKind::GpuFatal
            ? kCollectiveTimeoutSec
            : kHeartbeatPeriodSec * static_cast<double>(kHeartbeatMisses);
    scheduleAt(now + detect,
               [this, now, gpus, detect, mid_collective] {
        onFatalGpus(now, gpus, now + detect, mid_collective);
    });
}

void
RecoveryManager::onFatalGpus(double fail_s, std::vector<int> gpus,
                             double detect_s, bool mid_collective)
{
    if (runDone)
        return;
    if (recovering) {
        // Detected during another fault's repair window: absorbed.
        absorbFatal(gpus);
        return;
    }
    if (eworld != nullptr && allInDeadReplicas(gpus)) {
        // Every victim's replica died (folded into a shrink) between
        // the fault and its detection: nothing left to repair.
        ++runStats.failuresAbsorbed;
        return;
    }
    int units = unitsFor(gpus);
    if (sparesFree >= units) {
        sparesFree -= units;
        runStats.sparesConsumed += units;
        beginRollback(fail_s, detect_s, std::move(gpus), -1,
                      kSpareAcquireSec);
        return;
    }
    ++runStats.poolDryEvents;
    if (cfg.dryPolicy == DryPoolPolicy::ElasticShrink &&
        eworld != nullptr) {
        std::vector<int> replicas = replicasOf(gpus);
        if (!replicas.empty() &&
            static_cast<int>(replicas.size()) <
                eworld->aliveReplicas()) {
            beginShrink(fail_s, detect_s, std::move(gpus),
                        mid_collective);
            return;
        }
        // Shrinking would remove the last replica: fall through to
        // the reboot-length repair window.
    }
    beginRollback(fail_s, detect_s, std::move(gpus), -1, kRebootSec);
}

void
RecoveryManager::absorbFatal(const std::vector<int>& gpus)
{
    ++runStats.failuresAbsorbed;
    if (shrinkWindowOpen && eworld != nullptr) {
        std::vector<int> replicas = replicasOf(gpus);
        if (!replicas.empty() &&
            static_cast<int>(replicas.size()) <
                eworld->aliveReplicas()) {
            // Fold into the open shrink: these replicas leave with
            // the same reconfiguration pause, and the planned
            // capacity epoch is re-stated for the wider loss.
            for (int k : replicas) {
                DeadReplica dr;
                dr.dpIdx = k;
                for (int g : gpus)
                    if (dpIdxOfGpu(g) == k)
                        dr.gpus.push_back(g);
                dr.units = unitsFor(dr.gpus);
                eworld->markDead(k);
                ++runStats.elasticShrinks;
                deadReplicas.push_back(std::move(dr));
            }
            ledger.setCapacity(resumeAtSec, eworld->capacityFactor(),
                               activeGpuCount());
            return;
        }
    }
    std::vector<int> heal = gpus;
    scheduleAt(resumeAtSec, [this, heal] {
        for (int g : heal)
            plat.setGpuSlowdown(g, 1.0);
    });
}

int
RecoveryManager::dpIdxOfGpu(int gpu) const
{
    return mapper->coordsOf(mapper->rankOf(gpu)).dpIdx;
}

std::vector<int>
RecoveryManager::replicasOf(const std::vector<int>& gpus) const
{
    std::vector<int> replicas;
    for (int g : gpus) {
        int k = dpIdxOfGpu(g);
        if (eworld->replicaDead(k))
            continue;
        if (std::find(replicas.begin(), replicas.end(), k) ==
            replicas.end())
            replicas.push_back(k);
    }
    return replicas;
}

bool
RecoveryManager::allInDeadReplicas(const std::vector<int>& gpus) const
{
    for (int g : gpus)
        if (!eworld->replicaDead(dpIdxOfGpu(g)))
            return false;
    return true;
}

int
RecoveryManager::unitsFor(const std::vector<int>& gpus) const
{
    int per_node = network.topology().gpusPerNode();
    int units = 0;
    int last_node = -1;
    // Victim lists arrive node-sorted from schedule expansion.
    for (int g : gpus) {
        int node = g / per_node;
        if (node != last_node) {
            ++units;
            last_node = node;
        }
    }
    return std::max(units, 1);
}

int
RecoveryManager::activeGpuCount() const
{
    int total = plat.numGpus();
    if (eworld == nullptr)
        return total;
    int per_replica = total / eworld->dpSize();
    return per_replica * eworld->aliveReplicas();
}

void
RecoveryManager::onTransientLink(const FailureEvent& ev)
{
    double now = sim.nowSeconds();
    net::LinkId link = network.topology().nicOutLink(ev.target);
    if (recovering) {
        ++runStats.failuresAbsorbed;
        return;
    }
    for (const auto& s : sessions) {
        if (s.active && s.link == link) {
            // The link is already flapping and under retry; the new
            // outage is indistinguishable from the ongoing one.
            ++runStats.failuresAbsorbed;
            return;
        }
    }
    ++runStats.transientFaults;
    network.setLinkDerate(link, kLinkFaultDerate);

    RetrySession s;
    s.link = link;
    s.node = ev.target;
    s.failSec = now;
    s.clearAtSec = now + ev.clearSec;
    s.detectSec = now + kCollectiveTimeoutSec;
    s.active = true;
    sessions.push_back(s);
    std::size_t idx = sessions.size() - 1;
    scheduleAt(s.detectSec, [this, idx] {
        if (runDone || !sessions[idx].active)
            return;
        RetrySession& session = sessions[idx];
        ledger.mark(Bucket::Detection, session.failSec,
                    session.detectSec);
        double first = session.detectSec + retryBackoff(0).value();
        scheduleAt(first, [this, idx, first] {
            retryAttempt(idx, first);
        });
    });
}

void
RecoveryManager::retryAttempt(std::size_t session, double attempt_s)
{
    if (runDone || !sessions[session].active)
        return;
    RetrySession& s = sessions[session];
    ++s.attempt;
    ++runStats.retriesAttempted;
    if (attempt_s >= s.clearAtSec) {
        // The transient cleared: the retry succeeds and training
        // continues from exactly where it was — no rollback.
        network.setLinkDerate(s.link, 1.0);
        ledger.mark(Bucket::Retry, s.detectSec, attempt_s);
        ++runStats.transientRecovered;
        s.active = false;
        return;
    }
    if (s.attempt >= kRetryMaxAttempts) {
        // Budget exhausted: declare the NIC dead and escalate to the
        // fatal path (replacement + rollback). The link itself heals
        // when the replacement part arrives; a spare NIC sled comes
        // off the same finite shelf the GPU replacements use.
        ledger.mark(Bucket::Retry, s.detectSec, attempt_s);
        ++runStats.retriesEscalated;
        ++runStats.fatalFaults;
        s.active = false;
        double replacement = kRebootSec;
        if (sparesFree >= 1) {
            --sparesFree;
            ++runStats.sparesConsumed;
            replacement = kSpareAcquireSec;
        } else {
            ++runStats.poolDryEvents;
        }
        beginRollback(attempt_s, attempt_s, {}, s.link, replacement);
        return;
    }
    double next = attempt_s + retryBackoff(s.attempt).value();
    scheduleAt(next, [this, session, next] {
        retryAttempt(session, next);
    });
}

void
RecoveryManager::closeSessions(double fail_s, double ready_s)
{
    // Other in-progress retry sessions die with the repair window;
    // their links heal in the same maintenance window.
    for (auto& s : sessions) {
        if (!s.active)
            continue;
        if (s.detectSec < fail_s)
            ledger.mark(Bucket::Retry, s.detectSec, fail_s);
        s.active = false;
        net::LinkId l = s.link;
        scheduleAt(ready_s,
                   [this, l] { network.setLinkDerate(l, 1.0); });
    }
}

void
RecoveryManager::beginRollback(double fail_s, double detect_s,
                               std::vector<int> gpus, net::LinkId link,
                               double replacement_sec)
{
    CHARLLM_ASSERT(!recovering, "nested rollback");
    recovering = true;
    ++runStats.rollbacks;
    if (detect_s > fail_s)
        ledger.mark(Bucket::Detection, fail_s, detect_s);

    // A checkpoint write caught mid-flight by the fault never
    // completed anywhere durable: discard it. The rollback target
    // stays the previous completed checkpoint.
    if (ckptWritePending) {
        ckptComplete.cancel();
        ckptWritePending = false;
        ++runStats.checkpointsDiscarded;
    }

    int committed = engine.committedIterations();
    int rollback = committed - lastCkptStep;
    CHARLLM_CHECK(rollback >= 0, "checkpoint ahead of progress: ",
                  lastCkptStep, " > ", committed);

    double ready = detect_s + replacement_sec;
    double resume = ready + ckpt.readSeconds().value();
    resumeAtSec = resume;
    ledger.mark(Bucket::RollbackReplay, detect_s, resume);

    closeSessions(fail_s, ready);

    scheduleAt(ready, [this, gpus, link] {
        for (int g : gpus)
            plat.setGpuSlowdown(g, 1.0);
        if (link >= 0)
            network.setLinkDerate(link, 1.0);
    });
    if (cfg.elasticRemap && mapper != nullptr && gpus.size() == 1) {
        int peer = parallel::failoverPeer(
            *mapper, gpus.front(), network.topology().gpusPerNode());
        if (peer >= 0)
            mapper->swapDevices(gpus.front(), peer);
    }

    engine.abortIteration(rollback, resume);
    lastCkptRefSec = resume; // fresh cadence after recovery
    scheduleAt(resume, [this] { recovering = false; });
}

void
RecoveryManager::beginShrink(double fail_s, double detect_s,
                             std::vector<int> gpus,
                             bool mid_collective)
{
    CHARLLM_ASSERT(!recovering, "nested shrink");
    recovering = true;
    shrinkWindowOpen = true;
    if (detect_s > fail_s)
        ledger.mark(Bucket::Detection, fail_s, detect_s);

    int rollback = 0;
    if (mid_collective) {
        // The fault tore a live collective: shared gradient state is
        // inconsistent across the survivors, so they restore the last
        // completed checkpoint and replay. A boundary fault (no
        // collective in flight) keeps all committed work.
        ++runStats.rollbacks;
        if (ckptWritePending) {
            ckptComplete.cancel();
            ckptWritePending = false;
            ++runStats.checkpointsDiscarded;
        }
        int committed = engine.committedIterations();
        rollback = committed - lastCkptStep;
        CHARLLM_CHECK(rollback >= 0, "checkpoint ahead of progress: ",
                      lastCkptStep, " > ", committed);
    }

    double pause = kElasticQuiesceSec + kGroupReinitSec +
                   (mid_collective ? ckpt.readSeconds().value() : 0.0);
    double resume = detect_s + pause;
    resumeAtSec = resume;
    ledger.mark(Bucket::Reconfig, detect_s, resume);
    closeSessions(fail_s, resume);

    // Remove every replica the victims belong to; their failed GPUs
    // stay derated (dead) until spares repair the replica.
    for (int k : replicasOf(gpus)) {
        DeadReplica dr;
        dr.dpIdx = k;
        for (int g : gpus)
            if (dpIdxOfGpu(g) == k)
                dr.gpus.push_back(g);
        dr.units = unitsFor(dr.gpus);
        eworld->markDead(k);
        ++runStats.elasticShrinks;
        deadReplicas.push_back(std::move(dr));
    }
    ledger.setCapacity(resume, eworld->capacityFactor(),
                       activeGpuCount());

    engine.abortIteration(rollback, resume);
    lastCkptRefSec = resume;
    scheduleAt(resume, [this] {
        recovering = false;
        shrinkWindowOpen = false;
    });
    // A partially-stocked pool may already cover the cheapest dead
    // replica (e.g. a two-node switch loss against one shelf unit).
    tryScheduleRepairs(detect_s);
}

double
RecoveryManager::beginGrow(double end_s)
{
    // Rejoin every repaired replica at this iteration boundary: the
    // survivors quiesce, DP communicators re-form at the wider width,
    // and the rejoining ranks pull current state (one checkpoint-read
    // worth of bytes). No rollback — committed work stands.
    double pause = kElasticQuiesceSec + kGroupReinitSec +
                   ckpt.readSeconds().value();
    double resume = end_s + pause;
    ledger.mark(Bucket::Reconfig, end_s, resume);
    recovering = true;
    resumeAtSec = resume;
    std::vector<int> heal;
    for (auto it = deadReplicas.begin(); it != deadReplicas.end();) {
        if (!it->ready) {
            ++it;
            continue;
        }
        eworld->markAlive(it->dpIdx);
        ++runStats.elasticGrows;
        for (int g : it->gpus)
            heal.push_back(g);
        it = deadReplicas.erase(it);
    }
    CHARLLM_ASSERT(!heal.empty(), "grow without a repaired replica");
    ledger.setCapacity(resume, eworld->capacityFactor(),
                       activeGpuCount());
    lastCkptRefSec = resume;
    scheduleAt(resume, [this, heal] {
        for (int g : heal)
            plat.setGpuSlowdown(g, 1.0);
        recovering = false;
    });
    return pause;
}

void
RecoveryManager::tryScheduleRepairs(double now_s)
{
    for (auto& dr : deadReplicas) {
        if (dr.repairing)
            continue;
        if (sparesFree < dr.units)
            break; // FIFO: a cheap young replica never jumps the queue
        sparesFree -= dr.units;
        runStats.sparesConsumed += dr.units;
        dr.repairing = true;
        int dp_idx = dr.dpIdx;
        scheduleAt(now_s + kSpareAcquireSec, [this, dp_idx] {
            for (auto& d : deadReplicas)
                if (d.dpIdx == dp_idx)
                    d.ready = true;
        });
    }
}

void
RecoveryManager::armNextReplenish()
{
    if (nextReplenish >= replenishPlan.size())
        return;
    double when =
        std::max(replenishPlan[nextReplenish], sim.nowSeconds());
    std::size_t index = nextReplenish;
    scheduleAt(when, [this, index, when] {
        if (runDone)
            return;
        nextReplenish = index + 1;
        armNextReplenish();
        // The depot restocks toward capacity; a full shelf wastes the
        // delivery (the pool is finite, not an accumulator).
        if (sparesFree < cfg.spares.capacity) {
            ++sparesFree;
            ++runStats.sparesReplenished;
            tryScheduleRepairs(when);
        }
    });
}

double
RecoveryManager::onIterationCommitted(int index, double start_s,
                                      double end_s, bool last)
{
    (void)start_s;
    if (last) {
        shutdown(end_s);
        return 0.0;
    }
    if (!recovering) {
        for (const auto& dr : deadReplicas) {
            if (dr.ready)
                return beginGrow(end_s);
        }
    }
    if (ckptWritePending ||
        end_s - lastCkptRefSec < ckptIntervalSec)
        return 0.0;
    return startCheckpointPause(index + 1, end_s);
}

double
RecoveryManager::startCheckpointPause(int covered_step, double now_s)
{
    double write = ckpt.writeSeconds().value();
    double pause = ckptAsync ? quiesceSec : write;
    double pause_end = now_s + pause;
    double complete =
        ckptAsync ? pause_end + write : pause_end;
    ledger.mark(Bucket::Checkpoint, now_s, pause_end);
    lastCkptRefSec = pause_end;
    ckptWritePending = true;
    ckptComplete = scheduleAt(complete, [this, covered_step] {
        if (runDone)
            return;
        ckptWritePending = false;
        lastCkptStep = covered_step;
        ++runStats.checkpointsCommitted;
    });
    return pause;
}

void
RecoveryManager::shutdown(double end_s)
{
    runDone = true;
    wallEnd = end_s;
    armedFailure.cancel();
    for (auto& h : timers)
        h.cancel();
    timers.clear();
    // A retry session still open at run end: account its elapsed
    // detection/retry time so the tail is not misclassified.
    for (auto& s : sessions) {
        if (!s.active)
            continue;
        if (s.detectSec < end_s)
            ledger.mark(Bucket::Retry, s.detectSec, end_s);
        else if (s.failSec < end_s)
            ledger.mark(Bucket::Detection, s.failSec, end_s);
        s.active = false;
    }
}

GoodputReport
RecoveryManager::finalize(
    const std::vector<std::vector<telemetry::Sample>>& series) const
{
    CHARLLM_ASSERT(runDone, "finalize before the run completed");
    // A config error only the finished run can show.
    if (wallEnd > horizonSec + 1e-9)
        CHARLLM_FATAL("resilience.horizonSec (", horizonSec,
                      " s) is shorter than the run (", wallEnd,
                      " s): failures past the horizon were never "
                      "generated, so the tail of the run would be "
                      "silently failure-free; raise it to cover the "
                      "full run");
    ResilienceStats stats = runStats;
    for (const auto& span : engine.iterationSpans()) {
        if (span.aborted)
            ++stats.iterationsAborted;
        else if (span.replay)
            ++stats.iterationsReplayed;
    }
    return ledger.finalize(wallEnd, engine.iterationSpans(), series,
                           stats);
}

} // namespace resil
} // namespace charllm
