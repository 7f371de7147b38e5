/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, cancellation,
 * in-place reschedules, determinism, periodic tickers and their
 * fast-forward, and run control.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.scheduleAt(100, [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    auto h = q.scheduleAt(10, [&] { fired = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    q.runAll();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUpdatesPendingCount)
{
    EventQueue q;
    auto a = q.scheduleAt(1, [] {});
    auto b = q.scheduleAt(2, [] {});
    EXPECT_EQ(q.numPending(), 2u);
    a.cancel();
    EXPECT_EQ(q.numPending(), 1u);
    a.cancel(); // double-cancel is a no-op
    EXPECT_EQ(q.numPending(), 1u);
    q.runAll();
    EXPECT_EQ(q.numPending(), 0u);
    (void)b;
}

TEST(EventQueue, CancelFreesItsSlotAtOnce)
{
    EventQueue q;
    std::vector<EventHandle> first;
    for (Tick t = 0; t < 10; ++t)
        first.push_back(q.scheduleAt(t, [] {}));
    for (EventHandle& h : first)
        h.cancel();
    EXPECT_TRUE(q.empty());
    int fired = 0;
    for (Tick t = 0; t < 10; ++t)
        q.scheduleAt(t, [&fired] { ++fired; });
    EXPECT_EQ(q.slabSize(), 10u);
    // The old handles name their own events, not the slots' new ones.
    for (EventHandle& h : first) {
        EXPECT_FALSE(h.pending());
        h.cancel();
    }
    EXPECT_EQ(q.numPending(), 10u);
    q.runAll();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.numCancelled(), 10u);
}

TEST(EventQueue, ScheduleFromWithinEvent)
{
    EventQueue q;
    std::vector<Tick> times;
    q.scheduleAt(5, [&] {
        times.push_back(q.now());
        q.schedule(7, [&] { times.push_back(q.now()); });
    });
    q.runAll();
    EXPECT_EQ(times, (std::vector<Tick>{5, 12}));
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    q.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, TickConversionRoundTrips)
{
    EXPECT_EQ(toTicks(1.0), kTicksPerSecond);
    EXPECT_EQ(toTicks(1e-9), 1u);
    EXPECT_DOUBLE_EQ(toSeconds(2'500'000'000ULL), 2.5);
    EXPECT_EQ(toTicks(toSeconds(123456789ULL)), 123456789ULL);
    // The largest whole second a Tick holds, and the first it does not.
    EXPECT_EQ(toTicks(1.8e10), 18'000'000'000'000'000'000ULL);
}

TEST(EventQueueDeathTest, TickConversionRejectsOutOfRange)
{
    EXPECT_DEATH(toTicks(-1.0), "outside a Tick's range.*-1 s");
    EXPECT_DEATH(toTicks(1.9e10), "outside a Tick's range.*1.9e\\+10 s");
    EXPECT_DEATH(toTicks(std::numeric_limits<double>::infinity()),
                 "outside a Tick's range.*inf s");
    EXPECT_DEATH(toTicks(std::numeric_limits<double>::quiet_NaN()),
                 "outside a Tick's range.*nan s");
}

TEST(EventQueueDeathTest, ScheduleRejectsClockOverflow)
{
    EventQueue q;
    q.scheduleAt(10, [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(std::numeric_limits<Tick>::max() - 5, [] {}),
                 "time overflows a Tick: 10 \\+ ");
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    EXPECT_DEATH(s.schedule(std::numeric_limits<Tick>::max(), [] {}),
                 "time overflows a Tick");
}

TEST(EventQueue, RescheduleMovesInPlace)
{
    EventQueue q;
    std::vector<int> order;
    auto a = q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    auto c = q.scheduleAt(30, [&] { order.push_back(3); });
    EventHandle copy = a;
    EXPECT_TRUE(a.reschedule(25));
    // Every copy follows the moved event; the tie at 30 goes to the
    // event moved last, as a fresh scheduleAt would.
    EXPECT_EQ(copy.when(), 25u);
    EXPECT_TRUE(c.reschedule(5));
    EXPECT_TRUE(copy.reschedule(30));
    EXPECT_EQ(q.numPending(), 3u);
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
    EXPECT_FALSE(a.reschedule(40)); // fired: a no-op
    EXPECT_EQ(q.numRescheduled(), 3u);
    EXPECT_EQ(q.numCancelled(), 3u);
    EXPECT_EQ(q.numPopped(), 3u);
    EXPECT_EQ(q.slabSize(), 3u);
}

/**
 * A seeded script of schedule, cancel, retime and pop. Retimes go
 * through cancel() + a fresh schedule on one side of the twin and in
 * place on the other; both must fire the same (when, id) sequence.
 * Delays come from a small set, so equal-time ties are common. The
 * script also records each queue's peak numPending(), which its slab
 * must match: a fired or cancelled event frees its slot at once.
 */
class RescheduleScript
{
  public:
    /** The two ways to schedule and retime: a plain queue or a
     *  partitioned simulator, whose events land in a seeded domain. */
    struct Driver
    {
        std::function<Tick()> now;
        std::function<EventHandle(int domain, Tick delay, EventFn fn)>
            schedule;
        std::function<bool(EventHandle& h, Tick delay)> reschedule;
        std::function<void()> run;
        std::function<std::size_t(int domain)> pending;
    };

    RescheduleScript(bool in_place, int domains, std::uint64_t seed)
        : inPlace(in_place), numDomains(domains), rng(seed),
          peaks(static_cast<std::size_t>(domains), 0)
    {
    }

    /** The most events @p domain's queue held pending at once. */
    std::size_t
    peakPending(int domain) const
    {
        return peaks[static_cast<std::size_t>(domain)];
    }

    std::vector<std::pair<Tick, int>>
    play(Driver d)
    {
        drv = std::move(d);
        for (int i = 0; i < 200; ++i)
            add(delay());
        drv.run();
        return fired;
    }

  private:
    struct Slot
    {
        EventHandle handle;
        int domain = 0;
    };

    Tick
    delay()
    {
        static constexpr Tick kDelays[] = {0, 0, 1, 1, 2, 3, 5, 8, 40};
        return kDelays[rng.below(9)];
    }

    /** Every schedule goes through here: it is where a queue's
     *  pending count peaks. */
    EventHandle
    schedule(int domain, Tick d, EventFn fn)
    {
        EventHandle h = drv.schedule(domain, d, std::move(fn));
        std::size_t& peak = peaks[static_cast<std::size_t>(domain)];
        peak = std::max(peak, drv.pending(domain));
        return h;
    }

    void
    add(Tick d)
    {
        int id = static_cast<int>(slots.size());
        int domain = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(numDomains)));
        slots.push_back(Slot{schedule(domain, d, fire(id)), domain});
    }

    EventFn
    fire(int id)
    {
        return [this, id] { onFire(id); };
    }

    void
    onFire(int id)
    {
        fired.emplace_back(drv.now(), id);
        if (fired.size() == 500) {
            // A burst of events mixed in among the pending ones, then
            // cancelled: each is taken out of the heap from wherever it
            // sits, between in-place moves.
            std::vector<EventHandle> doomed;
            for (int i = 0; i < 1000; ++i)
                doomed.push_back(schedule(0, delay(), [this] {
                    ADD_FAILURE() << "cancelled event fired at "
                                  << drv.now();
                }));
            for (EventHandle& h : doomed)
                h.cancel();
        }
        int actions = 1 + static_cast<int>(rng.below(4));
        for (int a = 0; a < actions; ++a) {
            double pick = rng.uniform();
            // Mostly recent events, which are likelier still pending.
            std::size_t back = static_cast<std::size_t>(
                rng.below(std::min<std::size_t>(slots.size(), 128)));
            std::size_t j = slots.size() - 1 - back;
            Slot& target = slots[j];
            if (pick < 0.5) {
                if (slots.size() < 5000)
                    add(delay());
            } else if (pick < 0.7) {
                target.handle.cancel();
            } else {
                retime(static_cast<int>(j), target, delay());
            }
        }
    }

    /** Move slot @p id's event @p d from now (a no-op once it fired
     *  or was cancelled), sometimes through a copy of its handle. */
    void
    retime(int id, Slot& target, Tick d)
    {
        const bool was_pending = target.handle.pending();
        EventHandle copy = target.handle;
        if (inPlace) {
            EXPECT_EQ(drv.reschedule(target.handle, d), was_pending);
            // The copy follows the event it names.
            EXPECT_EQ(copy.pending(), was_pending);
            EXPECT_EQ(copy.when(), target.handle.when());
        } else if (was_pending) {
            target.handle.cancel();
            target.handle = schedule(target.domain, d, fire(id));
            EXPECT_FALSE(copy.pending());
        }
        if (rng.uniform() < 0.1) {
            // Cancel the moved event: through the stale-for-the-twin
            // copy in place, through the fresh handle otherwise.
            (inPlace ? copy : target.handle).cancel();
            EXPECT_FALSE(target.handle.pending());
        }
    }

    bool inPlace;
    int numDomains;
    Rng rng;
    Driver drv;
    std::vector<std::size_t> peaks;
    std::vector<Slot> slots;
    std::vector<std::pair<Tick, int>> fired;
};

TEST(EventQueue, RescheduleMatchesCancelAndScheduleTwin)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        EventQueue twin, moved;
        auto driver = [](EventQueue& q) {
            return RescheduleScript::Driver{
                [&q] { return q.now(); },
                [&q](int, Tick d, EventFn fn) {
                    return q.schedule(d, std::move(fn));
                },
                [&q](EventHandle& h, Tick d) {
                    return h.reschedule(q.now() + d);
                },
                [&q] { q.runAll(); },
                [&q](int) { return q.numPending(); }};
        };
        RescheduleScript twin_script(false, 1, seed);
        RescheduleScript moved_script(true, 1, seed);
        auto a = twin_script.play(driver(twin));
        auto b = moved_script.play(driver(moved));
        ASSERT_GT(a.size(), 1000u);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_EQ(twin.numPopped(), moved.numPopped());
        EXPECT_EQ(twin.numCancelled(), moved.numCancelled());
        EXPECT_GT(moved.numRescheduled(), 100u);
        EXPECT_EQ(twin.numRescheduled(), 0u);
        EXPECT_EQ(twin.slabSize(), twin_script.peakPending(0));
        EXPECT_EQ(moved.slabSize(), moved_script.peakPending(0));
    }
}

TEST(Simulator, PartitionedRescheduleMatchesCancelAndScheduleTwin)
{
    // A move into a queue other than the dispatching one can bring
    // that domain's head before the window's cached bound: it must
    // close the window, as a cross-domain insert does.
    for (std::uint64_t seed : {5, 6, 7}) {
        Simulator twin, moved;
        twin.partition(4);
        moved.partition(4);
        auto driver = [](Simulator& s) {
            return RescheduleScript::Driver{
                [&s] { return s.now(); },
                [&s](int domain, Tick d, EventFn fn) {
                    return s.scheduleInDomain(domain, d, std::move(fn));
                },
                [&s](EventHandle& h, Tick d) { return s.reschedule(h, d); },
                [&s] { s.run(); },
                [&s](int domain) {
                    return s.domainQueue(domain).numPending();
                }};
        };
        RescheduleScript twin_script(false, 4, seed);
        RescheduleScript moved_script(true, 4, seed);
        auto a = twin_script.play(driver(twin));
        auto b = moved_script.play(driver(moved));
        ASSERT_GT(a.size(), 1000u);
        EXPECT_EQ(a, b) << "seed " << seed;
        std::uint64_t resched = 0;
        for (int d = 0; d < 4; ++d) {
            EXPECT_EQ(twin.domainQueue(d).numPopped(),
                      moved.domainQueue(d).numPopped());
            resched += moved.domainQueue(d).numRescheduled();
            EXPECT_EQ(twin.domainQueue(d).slabSize(),
                      twin_script.peakPending(d));
            EXPECT_EQ(moved.domainQueue(d).slabSize(),
                      moved_script.peakPending(d));
        }
        EXPECT_GT(resched, 100u);
    }
}

TEST(Simulator, PeriodicTickerFiresWhileWorkRemains)
{
    Simulator s;
    int ticks = 0;
    s.every(toTicks(0.001), [&] { ++ticks; });
    // A long-running chain of work events spanning 10 ms.
    bool finished = false;
    std::function<void(int)> chain = [&](int remaining) {
        if (remaining == 0) {
            finished = true;
            return;
        }
        s.schedule(toTicks(0.002), [&, remaining] {
            chain(remaining - 1);
        });
    };
    chain(5);
    s.run();
    EXPECT_TRUE(finished);
    // Ticker fires roughly once per ms across the 10 ms of work.
    EXPECT_GE(ticks, 8);
    EXPECT_LE(ticks, 12);
}

TEST(Simulator, TickerDoesNotKeepSimulationAlive)
{
    Simulator s;
    int ticks = 0;
    s.every(toTicks(0.001), [&] { ++ticks; });
    s.schedule(toTicks(0.0005), [] {});
    s.run(); // must terminate
    EXPECT_LE(ticks, 2);
}

TEST(Simulator, TickerStopsAtTheEndOfTheClock)
{
    // The second firing would come past a Tick's range; the event still
    // pending is due before it, so the ticker stops instead of aborting.
    Simulator s;
    int ticks = 0;
    s.every(toTicks(1e10), [&] { ++ticks; });
    bool late = false;
    s.schedule(toTicks(1.5e10), [&] { late = true; });
    s.run();
    EXPECT_EQ(ticks, 1);
    EXPECT_TRUE(late);
}

TEST(EventQueue, FitsTickIsToTicksRange)
{
    EXPECT_TRUE(fitsTick(0.0));
    EXPECT_TRUE(fitsTick(1.8e10));
    EXPECT_FALSE(fitsTick(1.9e10));
    EXPECT_FALSE(fitsTick(-1.0));
    EXPECT_FALSE(fitsTick(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(fitsTick(std::numeric_limits<double>::quiet_NaN()));
    // At least one tick, as a ticker period: 0.5 ns rounds up to one.
    EXPECT_FALSE(fitsTick(1e-10, kMinPeriodTicks));
    EXPECT_TRUE(fitsTick(0.5e-9, kMinPeriodTicks));
    EXPECT_TRUE(fitsTick(1e-9, kMinPeriodTicks));
}

/**
 * A ticker whose every firing only bumps a counter: all firings are
 * quiet, so with the hook every firing between two other events is
 * fast-forwarded. Readers inside events and between runUntil calls see
 * the counts the plain ticker gives, and numPopped() matches.
 */
class CountingTicker : public TickerSkip
{
  public:
    std::uint64_t quietFirings() const override { return limit; }
    void skipFirings(std::uint64_t k) override { count += k; }

    std::uint64_t count = 0;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
};

TEST(Simulator, TickerFastForwardMatchesPeriodicTicker)
{
    for (int domains : {1, 3}) {
        auto play = [domains](bool with_hook) {
            Simulator s;
            if (domains > 1)
                s.partition(domains);
            CountingTicker t;
            int sampled = 0;
            const Tick period = 7;
            s.every(period, [&t] { ++t.count; },
                    with_hook ? &t : nullptr);
            // A second, hook-less ticker at a coarser period.
            s.every(50, [&sampled] { ++sampled; });
            std::vector<std::pair<Tick, std::uint64_t>> seen;
            Rng rng(11);
            Tick at = 0;
            for (int step = 0; step < 200; ++step) {
                // Events at random times, on the ticker's grid a third
                // of the time (equal-time ties both ways), some of
                // which schedule more.
                for (int e = static_cast<int>(rng.below(4)); e > 0; --e) {
                    Tick d = rng.below(3) == 0 ? period * rng.below(40)
                                               : rng.below(300);
                    int dom = static_cast<int>(
                        rng.below(static_cast<std::uint64_t>(domains)));
                    s.scheduleInDomain(dom, d, [&s, &t, &seen, d] {
                        seen.emplace_back(s.now(), t.count);
                        if (d % 2 == 0)
                            s.schedule(d / 2, [&s, &t, &seen] {
                                seen.emplace_back(s.now(), t.count);
                            });
                    });
                }
                // Sometimes the hook allows only a few firings.
                t.limit = rng.below(4) == 0
                              ? rng.below(5)
                              : std::numeric_limits<std::uint64_t>::max();
                at += rng.below(500);
                s.runUntil(at);
                seen.emplace_back(s.now(), t.count);
            }
            s.run();
            seen.emplace_back(s.now(), t.count);
            std::uint64_t popped = 0;
            for (int d = 0; d < s.numDomains(); ++d)
                popped += s.domainQueue(d).numPopped();
            return std::make_tuple(seen, popped, sampled,
                                   s.numFastForwarded());
        };
        auto [seen_a, popped_a, sampled_a, ff_a] = play(false);
        auto [seen_b, popped_b, sampled_b, ff_b] = play(true);
        EXPECT_EQ(seen_a, seen_b) << domains << " domains";
        EXPECT_EQ(popped_a, popped_b);
        EXPECT_EQ(sampled_a, sampled_b);
        EXPECT_EQ(ff_a, 0u);
        EXPECT_GT(ff_b, seen_b.back().second / 4);
    }
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Simulator s;
        std::vector<Tick> log;
        for (int i = 0; i < 20; ++i) {
            s.schedule(toTicks(0.001 * (20 - i)), [&log, &s] {
                log.push_back(s.now());
            });
        }
        s.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
