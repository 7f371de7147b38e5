/**
 * @file
 * Simulator facade: owns the event queue and provides periodic tickers
 * (used for thermal integration and telemetry sampling) plus run control.
 *
 * Partitioned execution (ROADMAP item 1): partition() splits the
 * event population into per-network-domain queues (domain 0 = the
 * global/engine domain, domains 1..N = per-node scale-up fabrics).
 * dispatchNext() advances the domain holding the globally earliest
 * event through a conservative time window: it may fire events
 * back-to-back from one domain as long as they stay strictly earlier
 * than every other domain's head and nothing was cross-inserted into
 * another domain. All queues share one sequence counter, so the
 * global (when, seq) order — and therefore every simulation output —
 * is byte-identical to the single-queue serial schedule.
 *
 * Ticker fast-forward: a periodic ticker may carry a TickerSkip hook.
 * After each firing it dispatches, the simulator asks the hook how
 * many of the next firings are no-ops and applies, in one call, those
 * that sort strictly before the next live event (and within a
 * runUntil limit). Nothing can make a skipped firing due: anything
 * that could runs inside an event, and every event bounds the skip.
 * The skipped firings are credited as popped events and consumed
 * sequence numbers, so every later (when, seq) pair is the periodic
 * ticker's.
 */

#ifndef CHARLLM_SIM_SIMULATOR_HH
#define CHARLLM_SIM_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace charllm {
namespace sim {

/**
 * Fast-forward hook of a periodic ticker (Simulator::every). A plain
 * interface, called once per dispatched firing, so it allocates
 * nothing.
 */
class TickerSkip
{
  public:
    /**
     * How many of the ticker's next firings would change nothing but
     * what skipFirings() advances, if no other event ran in between
     * (UINT64_MAX for no limit). Called right after a firing.
     */
    virtual std::uint64_t quietFirings() const = 0;

    /** Apply the effect of the next @p k <= quietFirings() firings. */
    virtual void skipFirings(std::uint64_t k) = 0;

  protected:
    ~TickerSkip() = default;
};

/**
 * Top-level simulation context. Components hold a reference and use it
 * to schedule work; the driver calls run().
 */
class Simulator
{
  public:
    Simulator() { events.shareSequence(&seqCounter); }
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    EventQueue& queue() { return events; }
    const EventQueue& queue() const { return events; }

    Tick now() const
    {
        return shards.empty() ? events.now() : globalTick;
    }
    double nowSeconds() const { return toSeconds(now()); }

    EventHandle
    schedule(Tick delay, EventFn fn)
    {
        return scheduleOn(events, tickAfter(now(), delay), std::move(fn));
    }

    EventHandle
    scheduleAt(Tick when, EventFn fn)
    {
        return scheduleOn(events, when, std::move(fn));
    }

    /**
     * Split event dispatch into @p domains queues (domain 0 included;
     * pass 1 + numNodes for per-node partitioning). Must be called
     * before any simulation work is scheduled into the node domains.
     */
    void
    partition(int domains)
    {
        CHARLLM_ASSERT(shards.empty(), "partition() called twice");
        CHARLLM_ASSERT(domains >= 1, "need at least domain 0");
        for (int i = 1; i < domains; ++i) {
            shards.push_back(std::make_unique<EventQueue>());
            shards.back()->shareSequence(&seqCounter);
        }
    }

    /** Number of dispatch domains (1 when unpartitioned). */
    int numDomains() const
    {
        return 1 + static_cast<int>(shards.size());
    }

    /** Queue of domain @p i (0 = the global/engine domain). */
    EventQueue&
    domainQueue(int i)
    {
        return i == 0 ? events : *shards[static_cast<std::size_t>(i - 1)];
    }

    const EventQueue&
    domainQueue(int i) const
    {
        return i == 0 ? events : *shards[static_cast<std::size_t>(i - 1)];
    }

    /**
     * Schedule @p fn in dispatch domain @p domain, @p delay from now.
     * Domain <= 0, out-of-range, or an unpartitioned simulator all
     * fall back to the global queue, so callers can pass a domain
     * unconditionally.
     */
    EventHandle
    scheduleInDomain(int domain, Tick delay, EventFn fn)
    {
        EventQueue& q =
            (domain <= 0 ||
             domain > static_cast<int>(shards.size()))
                ? events
                : *shards[static_cast<std::size_t>(domain - 1)];
        return scheduleOn(q, tickAfter(now(), delay), std::move(fn));
    }

    /**
     * Move pending event @p h to @p delay from now, in place, in
     * whichever domain queue holds it (EventHandle::reschedule: the
     * order cancel() + scheduling the same callback would give). A
     * move in a queue other than the dispatching one counts as a
     * cross-insert, since it may bring that domain's head earlier.
     * Returns false, and does nothing, if @p h is no longer pending.
     */
    bool
    reschedule(EventHandle& h, Tick delay)
    {
        if (h.queue() != active)
            ++crossInserts;
        return h.reschedule(tickAfter(now(), delay));
    }

    /**
     * Register a periodic ticker firing every @p period ticks, starting
     * one period from now. Tickers keep firing while other live events
     * exist; they stop themselves once the rest of the simulation has
     * drained, so runAll() terminates. With a @p skip hook, the
     * firings it reports as no-ops are fast-forwarded instead of
     * dispatched (see the file comment); every observable result,
     * numPopped() included, is the one the plain ticker gives, as long
     * as the simulation is driven through run() / runUntil() here.
     * @p skip must outlive the simulator's run.
     */
    void
    every(Tick period, EventFn fn, TickerSkip* skip = nullptr)
    {
        CHARLLM_ASSERT(period >= kMinPeriodTicks,
                       "ticker period must be at least one tick");
        tickers.push_back(std::make_unique<Ticker>(
            Ticker{period, std::move(fn), skip}));
        armTicker(tickers.back().get(), period);
    }

    /** Ticker firings fast-forwarded instead of dispatched. */
    std::uint64_t numFastForwarded() const { return fastForwarded; }

    /** Live events pending across all domains. */
    std::size_t
    totalPending() const
    {
        std::size_t n = events.numPending();
        for (const auto& s : shards)
            n += s->numPending();
        return n;
    }

    /**
     * Run the simulation until no non-ticker work remains. Periodic
     * tickers re-arm only while other events are pending.
     */
    void
    run()
    {
        if (shards.empty()) {
            while (events.runOne()) {
            }
            return;
        }
        while (dispatchNext()) {
        }
    }

    /** Run until simulated time @p until. */
    void
    runUntil(Tick until)
    {
        runLimit = until;
        if (shards.empty()) {
            events.runUntil(until);
            runLimit = std::numeric_limits<Tick>::max();
            return;
        }
        for (;;) {
            Tick bw = 0;
            std::uint64_t bs = 0;
            EventQueue* best = earliest(&bw, &bs, nullptr, nullptr);
            if (best == nullptr || bw > until)
                break;
            globalTick = bw;
            active = best;
            best->runOne();
            active = nullptr;
        }
        if (until > globalTick)
            globalTick = until;
        runLimit = std::numeric_limits<Tick>::max();
    }

  private:
    struct Ticker
    {
        Tick period;
        EventFn fn;
        TickerSkip* skip;
    };

    EventHandle
    scheduleOn(EventQueue& q, Tick when, EventFn fn)
    {
        if (&q != active)
            ++crossInserts;
        return q.scheduleAt(when, std::move(fn));
    }

    /**
     * Find the domain queue holding the globally earliest live event.
     * Fills (@p when, @p seq) for it and, when requested, the
     * runner-up head in (@p when2, @p seq2) — the conservative window
     * bound. Returns nullptr when every queue is empty.
     */
    EventQueue*
    earliest(Tick* when, std::uint64_t* seq, Tick* when2,
             std::uint64_t* seq2)
    {
        EventQueue* best = nullptr;
        Tick bw = 0;
        std::uint64_t bs = 0;
        Tick sw = std::numeric_limits<Tick>::max();
        std::uint64_t ss = std::numeric_limits<std::uint64_t>::max();
        const int n = numDomains();
        for (int i = 0; i < n; ++i) {
            EventQueue& q = domainQueue(i);
            Tick w;
            std::uint64_t s;
            if (!q.peekNext(&w, &s))
                continue;
            if (best == nullptr || w < bw || (w == bw && s < bs)) {
                sw = bw;
                ss = bs;
                if (best == nullptr) {
                    sw = std::numeric_limits<Tick>::max();
                    ss = std::numeric_limits<std::uint64_t>::max();
                }
                best = &q;
                bw = w;
                bs = s;
            } else if (w < sw || (w == sw && s < ss)) {
                sw = w;
                ss = s;
            }
        }
        if (best != nullptr) {
            *when = bw;
            *seq = bs;
            if (when2 != nullptr) {
                *when2 = sw;
                *seq2 = ss;
            }
        }
        return best;
    }

    /**
     * Fire the globally next event, then keep firing from the same
     * domain while its head stays strictly ahead of every other
     * domain's cached head and no event was inserted into another
     * domain (cross-inserts could create an earlier head there;
     * cancellations only push heads later, so the cached bound stays
     * conservative). Returns false once all domains are drained.
     */
    bool
    dispatchNext()
    {
        Tick bw = 0, sw = 0;
        std::uint64_t bs = 0, ss = 0;
        EventQueue* best = earliest(&bw, &bs, &sw, &ss);
        if (best == nullptr)
            return false;
        for (;;) {
            globalTick = bw;
            active = best;
            const std::uint64_t xi = crossInserts;
            best->runOne();
            active = nullptr;
            if (crossInserts != xi)
                break;
            if (!best->peekNext(&bw, &bs))
                break;
            if (bw > sw || (bw == sw && bs > ss))
                break;
        }
        return true;
    }

    void
    armTicker(Ticker* t, Tick delay)
    {
        // A raw pointer capture is safe: the tickers vector owns every
        // Ticker for the Simulator's lifetime, and the event queue is
        // destroyed (callbacks dropped, never invoked) alongside it.
        ++pendingTickerEvents;
        schedule(delay, [this, t] {
            --pendingTickerEvents;
            t->fn();
            // Re-arm only while non-ticker work remains; otherwise
            // tickers would keep the simulation (and each other)
            // alive forever. A skipped firing would decide the same:
            // nothing else runs before it. A firing past the clock's
            // end never comes: everything else is due before it.
            if (totalPending() > pendingTickerEvents) {
                Tick delay = t->period * (1 + fastForward(*t));
                if (delay <= std::numeric_limits<Tick>::max() - now())
                    armTicker(t, delay);
            }
        });
    }

    /**
     * Skip the quiet firings of @p t that sort before the next live
     * event and fall within the runUntil limit; returns how many. The
     * ticker is being re-armed, so some non-ticker event is live.
     * Firing i (i >= 1) would come at now + i period with a sequence
     * number above every live event's, so it sorts first exactly when
     * its time is strictly earlier.
     */
    std::uint64_t
    fastForward(Ticker& t)
    {
        if (t.skip == nullptr)
            return 0;
        std::uint64_t k = t.skip->quietFirings();
        if (k == 0)
            return 0;
        Tick head = 0;
        std::uint64_t seq = 0;
        const bool live = shards.empty()
                              ? events.peekNext(&head, &seq)
                              : earliest(&head, &seq, nullptr, nullptr) !=
                                    nullptr;
        const Tick at = now();
        if (!live || head <= at || runLimit < at)
            return 0;
        k = std::min(k, (head - 1 - at) / t.period);
        k = std::min(k, (runLimit - at) / t.period);
        t.skip->skipFirings(k);
        events.creditSkippedFirings(k);
        fastForwarded += k;
        return k;
    }

    EventQueue events;
    /** Sequence counter shared by every domain queue: one global
     *  (when, seq) total order across domains. */
    std::uint64_t seqCounter = 0;
    /** Per-node domain queues (empty = unpartitioned). */
    std::vector<std::unique_ptr<EventQueue>> shards;
    /** Global clock when partitioned (shard clocks trail it). */
    Tick globalTick = 0;
    /** Domain currently dispatching (window-staleness tracking). */
    EventQueue* active = nullptr;
    /** Bumped whenever an event lands outside the active domain. */
    std::uint64_t crossInserts = 0;
    std::vector<std::unique_ptr<Ticker>> tickers;
    std::size_t pendingTickerEvents = 0;
    /** Latest time a skipped ticker firing may have: runUntil's
     *  limit while it runs. */
    Tick runLimit = std::numeric_limits<Tick>::max();
    std::uint64_t fastForwarded = 0;
};

} // namespace sim
} // namespace charllm

#endif // CHARLLM_SIM_SIMULATOR_HH
