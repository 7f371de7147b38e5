#include "resil/goodput.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/intervals.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace charllm {
namespace resil {

const char*
bucketName(Bucket bucket)
{
    switch (bucket) {
    case Bucket::Useful:
        return "useful";
    case Bucket::Checkpoint:
        return "checkpoint";
    case Bucket::Detection:
        return "detection";
    case Bucket::Retry:
        return "retry";
    case Bucket::RollbackReplay:
        return "rollback_replay";
    case Bucket::Reconfig:
        return "reconfig";
    case Bucket::Degraded:
        return "degraded";
    case Bucket::Idle:
        return "idle";
    }
    return "unknown";
}

void
GoodputLedger::mark(Bucket bucket, double start_s, double end_s)
{
    CHARLLM_ASSERT(bucket != Bucket::Useful &&
                       bucket != Bucket::Idle &&
                       bucket != Bucket::Degraded,
                   "useful/idle/degraded are derived, not marked");
    CHARLLM_ASSERT(end_s >= start_s, "inverted mark: [", start_s,
                   ", ", end_s, ")");
    if (end_s > start_s)
        marks.push_back(MarkedInterval{bucket, start_s, end_s});
}

void
GoodputLedger::setCapacity(double start_s, double factor,
                           int active_gpus)
{
    CHARLLM_ASSERT(factor > 0.0 && factor <= 1.0,
                   "capacity factor must be in (0, 1]: ", factor);
    CHARLLM_ASSERT(capacity.empty() ||
                       start_s >= capacity.back().startSec,
                   "capacity epochs must be appended in time order");
    if (!capacity.empty() && capacity.back().startSec == start_s)
        capacity.back() = CapacityEpoch{start_s, factor, active_gpus};
    else
        capacity.push_back(CapacityEpoch{start_s, factor,
                                         active_gpus});
}

GoodputReport
GoodputLedger::finalize(
    double wall_end_s,
    const std::vector<runtime::IterationSpan>& spans,
    const std::vector<std::vector<telemetry::Sample>>& series,
    const ResilienceStats& stats) const
{
    GoodputReport rep;
    rep.stats = stats;
    rep.wallSec = wall_end_s;
    CHARLLM_CHECK(wall_end_s > 0.0,
                  "goodput window must be positive: ", wall_end_s);

    // Merged interval unions: one per markable bucket, plus executed
    // iteration spans split into committed-useful vs lost (aborted
    // attempts and rollback replays).
    IntervalList ckpt, detect, retry, rollback, reconf, useful, lost;
    for (const auto& m : marks) {
        double lo = std::max(0.0, m.startSec);
        double hi = std::min(wall_end_s, m.endSec);
        if (hi <= lo)
            continue;
        switch (m.bucket) {
        case Bucket::Checkpoint:
            ckpt.emplace_back(lo, hi);
            break;
        case Bucket::Detection:
            detect.emplace_back(lo, hi);
            break;
        case Bucket::Retry:
            retry.emplace_back(lo, hi);
            break;
        case Bucket::Reconfig:
            reconf.emplace_back(lo, hi);
            break;
        default:
            rollback.emplace_back(lo, hi);
            break;
        }
    }
    for (const auto& span : spans) {
        double lo = std::max(0.0, span.startSec);
        double hi = std::min(wall_end_s, span.endSec);
        if (hi <= lo)
            continue;
        if (span.aborted || span.replay)
            lost.emplace_back(lo, hi);
        else
            useful.emplace_back(lo, hi);
    }
    mergeIntervals(ckpt);
    mergeIntervals(detect);
    mergeIntervals(retry);
    mergeIntervals(rollback);
    mergeIntervals(reconf);
    mergeIntervals(useful);
    mergeIntervals(lost);

    // Segment the window at every union boundary; within a segment the
    // classification is constant, so the midpoint decides it. Capacity
    // epoch starts cut too, so the factor is constant per segment.
    std::vector<double> cuts;
    cuts.push_back(0.0);
    cuts.push_back(wall_end_s);
    addCuts(ckpt, 0.0, wall_end_s, cuts);
    addCuts(detect, 0.0, wall_end_s, cuts);
    addCuts(retry, 0.0, wall_end_s, cuts);
    addCuts(rollback, 0.0, wall_end_s, cuts);
    addCuts(reconf, 0.0, wall_end_s, cuts);
    addCuts(useful, 0.0, wall_end_s, cuts);
    addCuts(lost, 0.0, wall_end_s, cuts);
    for (const auto& epoch : capacity)
        if (epoch.startSec > 0.0 && epoch.startSec < wall_end_s)
            cuts.push_back(epoch.startSec);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    rep.capacity = capacity;
    int full_gpus =
        capacity.empty() ? 0 : capacity.front().activeGpus;
    auto epochAt = [this](double t) -> const CapacityEpoch* {
        const CapacityEpoch* cur = nullptr;
        for (const auto& epoch : capacity) {
            if (epoch.startSec > t)
                break;
            cur = &epoch;
        }
        return cur;
    };

    // The midpoints ascend, so each union is walked once.
    IntervalCursor inDetect(detect), inRetry(retry), inRollback(rollback),
        inReconf(reconf), inCkpt(ckpt), inLost(lost), inUseful(useful);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        double a = cuts[i];
        double b = cuts[i + 1];
        double mid = a + (b - a) / 2.0;
        // Priority: explicit recovery-pipeline marks beat span
        // classification (a detection window overlapping a doomed
        // iteration's tail is detection, not replay), and lost spans
        // beat useful ones. Useful time inside a shrunk-capacity epoch
        // is degraded: the seconds stay raw in the bucket, and the
        // capacity-weighted credit accrues separately.
        Bucket bucket = Bucket::Idle;
        if (inDetect.covers(mid))
            bucket = Bucket::Detection;
        else if (inRetry.covers(mid))
            bucket = Bucket::Retry;
        else if (inRollback.covers(mid))
            bucket = Bucket::RollbackReplay;
        else if (inReconf.covers(mid))
            bucket = Bucket::Reconfig;
        else if (inCkpt.covers(mid))
            bucket = Bucket::Checkpoint;
        else if (inLost.covers(mid))
            bucket = Bucket::RollbackReplay;
        else if (inUseful.covers(mid)) {
            bucket = Bucket::Useful;
            const CapacityEpoch* epoch = epochAt(mid);
            if (epoch != nullptr && epoch->activeGpus < full_gpus) {
                bucket = Bucket::Degraded;
                rep.degradedEffectiveSec += epoch->factor * (b - a);
            }
        }
        rep.buckets[static_cast<std::size_t>(bucket)].seconds +=
            b - a;
        if (!rep.timeline.empty() &&
            rep.timeline.back().bucket == bucket &&
            rep.timeline.back().endSec == a) {
            rep.timeline.back().endSec = b;
        } else {
            rep.timeline.push_back(MarkedInterval{bucket, a, b});
        }
    }

    // Energy: split each series over the timeline with the split
    // obs::attributePhases uses, and integrate the same series
    // independently for the conservation check.
    for (const auto& s : series)
        telemetry::splitSampleEnergy(
            s, 0.0, wall_end_s, rep.timeline,
            [&rep](double joules) { rep.totalEnergyJ += joules; },
            [&rep](const MarkedInterval& segment, double joules) {
                rep.buckets[static_cast<std::size_t>(segment.bucket)]
                    .energyJ += joules;
            });

    // Conservation invariants: the eight buckets partition wall time
    // and integrated energy exactly (1e-9 relative, matching the phase
    // attribution contract). Always-on — a taxonomy hole must abort
    // the run, not skew ETTR.
    double sum_sec = 0.0, sum_j = 0.0;
    for (const auto& slice : rep.buckets) {
        sum_sec += slice.seconds;
        sum_j += slice.energyJ;
    }
    CHARLLM_CHECK(std::abs(sum_sec - wall_end_s) <=
                      1e-9 * std::max(1.0, wall_end_s),
                  "goodput time leak: buckets sum to ", sum_sec,
                  " of ", wall_end_s, " wall seconds");
    CHARLLM_CHECK(std::abs(sum_j - rep.totalEnergyJ) <=
                      1e-9 * std::max(1.0, rep.totalEnergyJ),
                  "goodput energy leak: buckets sum to ", sum_j,
                  " of ", rep.totalEnergyJ, " J");
    // Re-derive the degraded capacity credit by intersecting the
    // finalized timeline with the epoch step function (coalesced
    // Degraded segments may straddle epoch changes; the intersection
    // re-splits them). Disagreement with the per-segment accumulation
    // means the capacity bookkeeping leaked.
    double degraded_check = 0.0;
    for (const auto& seg : rep.timeline) {
        if (seg.bucket != Bucket::Degraded)
            continue;
        for (std::size_t e = 0; e < capacity.size(); ++e) {
            double lo = std::max(seg.startSec, capacity[e].startSec);
            double hi = e + 1 < capacity.size()
                            ? std::min(seg.endSec,
                                       capacity[e + 1].startSec)
                            : seg.endSec;
            if (hi > lo)
                degraded_check += capacity[e].factor * (hi - lo);
        }
    }
    CHARLLM_CHECK(
        std::abs(degraded_check - rep.degradedEffectiveSec) <=
            1e-9 * std::max(1.0, rep.degradedEffectiveSec),
        "degraded capacity-weighting leak: timeline x epochs gives ",
        degraded_check, " effective seconds, accumulation gave ",
        rep.degradedEffectiveSec);
    CHARLLM_CHECK(rep.degradedEffectiveSec <=
                      rep.slice(Bucket::Degraded).seconds +
                          1e-9 * std::max(1.0, rep.wallSec),
                  "degraded credit exceeds degraded wall time");
    return rep;
}

CsvWriter
GoodputReport::toCsv() const
{
    CsvWriter csv;
    csv.header({"bucket", "seconds", "share", "energy_j",
                "energy_share"});
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        csv.beginRow();
        csv.cell(std::string(bucketName(static_cast<Bucket>(b))));
        csv.cell(buckets[b].seconds);
        csv.cell(wallSec > 0.0 ? buckets[b].seconds / wallSec : 0.0);
        csv.cell(buckets[b].energyJ);
        csv.cell(totalEnergyJ > 0.0 ? buckets[b].energyJ / totalEnergyJ
                                    : 0.0);
        csv.endRow();
    }
    csv.beginRow();
    csv.cell(std::string("total"));
    csv.cell(wallSec);
    csv.cell(1.0);
    csv.cell(totalEnergyJ);
    csv.cell(1.0);
    csv.endRow();
    return csv;
}

std::string
GoodputReport::toJson() const
{
    std::ostringstream os;
    os << "{\"wall_sec\":" << formatDouble(wallSec, 17)
       << ",\"total_energy_j\":" << formatDouble(totalEnergyJ, 17)
       << ",\"ettr\":" << formatDouble(ettr(), 17)
       << ",\"energy_ettr\":" << formatDouble(energyEttr(), 17)
       << ",\"effective_ettr\":" << formatDouble(effectiveEttr(), 17)
       << ",\"degraded_effective_sec\":"
       << formatDouble(degradedEffectiveSec, 17)
       << ",\"buckets\":{";
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        if (b != 0)
            os << ',';
        os << '"' << bucketName(static_cast<Bucket>(b))
           << "\":{\"seconds\":"
           << formatDouble(buckets[b].seconds, 17) << ",\"energy_j\":"
           << formatDouble(buckets[b].energyJ, 17) << '}';
    }
    os << "},\"stats\":{\"failures_injected\":"
       << stats.failuresInjected
       << ",\"failures_absorbed\":" << stats.failuresAbsorbed
       << ",\"transient_faults\":" << stats.transientFaults
       << ",\"transient_recovered\":" << stats.transientRecovered
       << ",\"retries_attempted\":" << stats.retriesAttempted
       << ",\"retries_escalated\":" << stats.retriesEscalated
       << ",\"fatal_faults\":" << stats.fatalFaults
       << ",\"rollbacks\":" << stats.rollbacks
       << ",\"iterations_replayed\":" << stats.iterationsReplayed
       << ",\"iterations_aborted\":" << stats.iterationsAborted
       << ",\"checkpoints_committed\":" << stats.checkpointsCommitted
       << ",\"checkpoints_discarded\":" << stats.checkpointsDiscarded
       << "},\"elastic\":{\"domain_faults\":" << stats.domainFaults
       << ",\"shrinks\":" << stats.elasticShrinks
       << ",\"grows\":" << stats.elasticGrows
       << ",\"spares_consumed\":" << stats.sparesConsumed
       << ",\"spares_replenished\":" << stats.sparesReplenished
       << ",\"pool_dry_events\":" << stats.poolDryEvents
       << ",\"min_active_gpus\":" << minActiveGpus()
       << ",\"capacity\":[";
    for (std::size_t e = 0; e < capacity.size(); ++e) {
        if (e != 0)
            os << ',';
        os << "{\"start_s\":" << formatDouble(capacity[e].startSec, 17)
           << ",\"factor\":" << formatDouble(capacity[e].factor, 17)
           << ",\"active_gpus\":" << capacity[e].activeGpus << '}';
    }
    os << "]}}";
    return os.str();
}

} // namespace resil
} // namespace charllm
