/**
 * @file
 * Discrete-event kernel: a time-ordered queue of cancellable events.
 *
 * Ticks are integer nanoseconds of simulated time. Events scheduled for
 * the same tick fire in scheduling order (FIFO), which keeps runs
 * deterministic regardless of heap internals.
 *
 * The kernel is allocation-free on its hot path: event records live in
 * a slab (a dense vector recycled through a free list), handles refer
 * to records by {slot index, generation counter} instead of shared
 * ownership, and callbacks are stored in sim::EventFn — a move-only
 * callable with an inline small-buffer store sized so the simulator's
 * common lambda captures never touch the heap. Ordering is kept in a
 * binary min-heap of plain {when, seq, slot} entries, indexed: each
 * slot knows its entry's heap position, so a pending event can be
 * moved to a new time in place (EventHandle::reschedule) or taken out
 * where it sits (EventHandle::cancel). The heap holds exactly the
 * pending events, and a slot is free from the moment its event fires
 * or is cancelled.
 */

#ifndef CHARLLM_SIM_EVENT_QUEUE_HH
#define CHARLLM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace charllm {
namespace sim {

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** One simulated second, in ticks. */
constexpr Tick kTicksPerSecond = 1'000'000'000ULL;

/** Fewest ticks in a Simulator::every period. */
constexpr Tick kMinPeriodTicks = 1;

/** The one range test of simulated time: whether toTicks(@p seconds)
 *  is defined (a Tick holds ~1.8e10 s) and at least @p min_ticks. */
constexpr bool
fitsTick(double seconds, Tick min_ticks = 0)
{
    // 2^64 ns: the first value a Tick cannot hold. NaN fails every
    // comparison, +inf the second.
    constexpr double kTickLimitNs = 18446744073709551616.0;
    const double ns = seconds * 1e9 + 0.5;
    return seconds >= 0.0 && ns < kTickLimitNs &&
           static_cast<Tick>(ns) >= min_ticks;
}

/**
 * Convert floating-point seconds to ticks (rounding to nearest). An
 * input fitsTick rejects is a fault reported here, with the value.
 */
inline Tick
toTicks(double seconds)
{
    CHARLLM_ASSERT(fitsTick(seconds),
                   "time outside a Tick's range [0, 1.8e10 s]: ", seconds,
                   " s");
    return static_cast<Tick>(seconds * 1e9 + 0.5);
}

/** @p now + @p delay, checked: a sum past Tick's range is a fault. */
inline Tick
tickAfter(Tick now, Tick delay)
{
    CHARLLM_ASSERT(delay <= std::numeric_limits<Tick>::max() - now,
                   "time overflows a Tick: ", now, " + ", delay, " ns");
    return now + delay;
}

/** Convert ticks to floating-point seconds. */
inline double
toSeconds(Tick ticks)
{
    return static_cast<double>(ticks) * 1e-9;
}

/**
 * Move-only type-erased callable with a small-buffer store. Captures up
 * to kInlineBytes live inline in the object; larger closures fall back
 * to a single heap allocation. Trivially-copyable inline captures (the
 * overwhelmingly common case: `this` plus a few scalars) move by plain
 * memcpy with no indirect call. Replaces std::function on the event
 * hot path, where per-event allocation dominated kernel cost.
 */
class EventFn
{
  public:
    /** Inline capture capacity. Sized so an EventQueue Record fits one
     *  cache line (the slab is touched in pop order, which is random),
     *  while still holding every hot capture set in the tree — the
     *  largest is a moved-in std::function completion callback (32
     *  bytes). Bigger closures fall back to one heap allocation. */
    static constexpr std::size_t kInlineBytes = 32;

    EventFn() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventFn> &&
                  std::is_invocable_r_v<void, D&>>>
    EventFn(F&& fn) // NOLINT(google-explicit-constructor)
    {
        constexpr bool fits =
            sizeof(D) <= kInlineBytes &&
            alignof(D) <= alignof(std::max_align_t) &&
            std::is_nothrow_move_constructible_v<D>;
        if constexpr (fits && std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>) {
            ::new (static_cast<void*>(storage)) D(std::forward<F>(fn));
            invokeFn = &inlineInvoke<D>;
            // manageFn stays null: moved by memcpy, destroyed for free.
        } else if constexpr (fits) {
            ::new (static_cast<void*>(storage)) D(std::forward<F>(fn));
            invokeFn = &inlineInvoke<D>;
            manageFn = &inlineManage<D>;
        } else {
            ::new (static_cast<void*>(storage))
                D*(new D(std::forward<F>(fn)));
            invokeFn = &heapInvoke<D>;
            manageFn = &heapManage<D>;
        }
    }

    EventFn(EventFn&& other) noexcept { moveFrom(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return invokeFn != nullptr; }

    void
    operator()()
    {
        CHARLLM_ASSERT(invokeFn, "invoking an empty EventFn");
        invokeFn(storage);
    }

    /** Destroy the held callable (captures released immediately). */
    void
    reset()
    {
        if (manageFn)
            manageFn(Op::Destroy, storage, nullptr);
        invokeFn = nullptr;
        manageFn = nullptr;
    }

  private:
    enum class Op
    {
        MoveTo,
        Destroy
    };

    using InvokeFn = void (*)(void*);
    using ManageFn = void (*)(Op, void* self, void* other);

    template <typename D>
    static void
    inlineInvoke(void* self)
    {
        (*std::launder(reinterpret_cast<D*>(self)))();
    }

    template <typename D>
    static void
    inlineManage(Op op, void* self, void* other)
    {
        D* fn = std::launder(reinterpret_cast<D*>(self));
        if (op == Op::MoveTo)
            ::new (other) D(std::move(*fn));
        fn->~D();
    }

    template <typename D>
    static void
    heapInvoke(void* self)
    {
        (**std::launder(reinterpret_cast<D**>(self)))();
    }

    template <typename D>
    static void
    heapManage(Op op, void* self, void* other)
    {
        D** slot = std::launder(reinterpret_cast<D**>(self));
        if (op == Op::MoveTo)
            ::new (other) D*(*slot);
        else
            delete *slot;
    }

    void
    moveFrom(EventFn& other) noexcept
    {
        if (other.manageFn) {
            other.manageFn(Op::MoveTo, other.storage, storage);
        } else if (other.invokeFn) {
            std::memcpy(storage, other.storage, kInlineBytes);
        }
        invokeFn = other.invokeFn;
        manageFn = other.manageFn;
        other.invokeFn = nullptr;
        other.manageFn = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    InvokeFn invokeFn = nullptr;
    ManageFn manageFn = nullptr;
};

class EventQueue;

/**
 * Handle to a scheduled event; allows cancellation. A handle is a
 * {queue, slot, generation} triple — copying it is free and cancelling
 * a fired or already-cancelled event is a no-op (the slot's generation
 * has moved on). Handles must not outlive their queue.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event is still pending (not fired, not cancelled). */
    bool pending() const;

    /** Cancel the event if still pending. */
    void cancel();

    /** Scheduled firing time; only meaningful while pending (else 0). */
    Tick when() const;

    /**
     * Move the pending event to absolute time @p when (>= now), in
     * place: it gets a fresh sequence number, so it pops exactly where
     * cancel() + EventQueue::scheduleAt(when, same callback) would put
     * it, with no slot churn and no rebuilt closure. Every copy of
     * this handle follows the moved event. Counted as a cancellation
     * (and a reschedule). Returns false, and does nothing, if the
     * event is no longer pending.
     */
    bool reschedule(Tick when);

    /** The queue the event was scheduled on (null for a default
     *  handle). */
    EventQueue* queue() const { return owner; }

  private:
    friend class EventQueue;

    EventHandle(EventQueue* queue, std::uint32_t s, std::uint32_t g)
        : owner(queue), slot(s), generation(g)
    {
    }

    EventQueue* owner = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
};

/**
 * The event queue itself. Not thread-safe: the simulator is
 * single-threaded by design (determinism beats parallel speed at this
 * scale; sweep-level parallelism lives in core::SweepRunner, one
 * simulator per thread).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    EventHandle
    scheduleAt(Tick when, EventFn fn)
    {
        CHARLLM_ASSERT(when >= currentTick,
                       "scheduling into the past: ", when, " < ",
                       currentTick);
        std::uint32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(slabCount++);
            if ((slot >> kChunkShift) >= chunks.size())
                chunks.push_back(
                    std::make_unique<Record[]>(kChunkSize));
            heapPos.push_back(0);
        }
        Record& record = recordAt(slot);
        record.fn = std::move(fn);
        heap.push_back(HeapEntry{when, (*seqPtr)++, slot});
        siftUp(heap.size() - 1);
        return EventHandle(this, slot, record.generation);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    EventHandle
    schedule(Tick delay, EventFn fn)
    {
        return scheduleAt(tickAfter(currentTick, delay), std::move(fn));
    }

    /**
     * Account for @p k firings of a periodic ticker that were proven
     * no-ops and never dispatched (Simulator's ticker fast-forward):
     * each counts as a popped event and consumes the one sequence
     * number its re-arm would have taken, so every later (when, seq)
     * pair and numPopped() match the dispatched schedule.
     */
    void
    creditSkippedFirings(std::uint64_t k)
    {
        poppedEvents += k;
        *seqPtr += k;
    }

    /**
     * Share one monotone sequence counter across several queues.
     * Partitioned execution (sim::Simulator domains) runs one queue
     * per network domain; a shared counter makes the global
     * (when, seq) order identical to the single-queue schedule, which
     * is what keeps partitioned runs byte-identical to serial ones.
     * Must be called before any event is scheduled on this queue.
     */
    void
    shareSequence(std::uint64_t* counter)
    {
        CHARLLM_ASSERT(heap.empty() && slabCount == 0,
                       "shareSequence after events were scheduled");
        seqPtr = counter;
    }

    /**
     * Report the next pending event without firing it. Returns false
     * when none remains; otherwise fills @p when / @p seq with the
     * head's firing time and global sequence number.
     */
    bool
    peekNext(Tick* when, std::uint64_t* seq) const
    {
        if (heap.empty())
            return false;
        *when = heap.front().when;
        *seq = heap.front().seq;
        return true;
    }

    /** Any events pending? */
    bool empty() const { return heap.empty(); }

    std::size_t numPending() const { return heap.size(); }

    /** Pop and run the next event; returns false if none remain. */
    bool
    runOne()
    {
        if (heap.empty())
            return false;
        // Pull the record toward the cache while the sift runs.
        __builtin_prefetch(&recordAt(heap.front().slot));
        HeapEntry top = popTop();
        currentTick = top.when;
        ++poppedEvents;
        // Move the closure out and recycle the slot before firing:
        // the callback may schedule new events (which may reuse this
        // very slot) without ever touching the allocator.
        EventFn fn = std::move(recordAt(top.slot).fn);
        freeSlot(top.slot);
        fn();
        return true;
    }

    /** Run events with time <= @p until; advance the clock to @p until. */
    void
    runUntil(Tick until)
    {
        while (!heap.empty() && heap.front().when <= until)
            runOne();
        if (until > currentTick)
            currentTick = until;
    }

    /** Run until no events remain. */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /** @name Pool introspection (tests, benches, obs::SimCounters)
     * @{ */
    /** Slots ever allocated: the peak number of pending events. */
    std::size_t slabSize() const { return slabCount; }
    /** Events popped and fired so far, plus ticker firings
     *  credited by creditSkippedFirings(). */
    std::uint64_t numPopped() const { return poppedEvents; }
    /** Pending events cancelled so far, reschedules included. */
    std::uint64_t numCancelled() const { return cancelledEvents; }
    /** Pending events moved in place by EventHandle::reschedule. */
    std::uint64_t numRescheduled() const { return rescheduledEvents; }
    /** @} */

  private:
    friend class EventHandle;

    struct Record
    {
        EventFn fn;
        /** Bumped when the event fires or is cancelled: a handle is
         *  pending while its generation matches. */
        std::uint32_t generation = 0;
    };

    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Records live in fixed chunks so slab growth never moves (or
     *  copies) existing records; a slot index resolves with one extra
     *  well-predicted load through the chunk table. */
    static constexpr std::uint32_t kChunkShift = 9;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    Record&
    recordAt(std::uint32_t slot)
    {
        return chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    const Record&
    recordAt(std::uint32_t slot) const
    {
        return chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    /** Strict total order: does @p a fire before @p b? The (when, seq)
     *  pair makes same-tick events FIFO regardless of heap shape. */
    static bool
    firesBefore(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** @name Indexed binary min-heap with bottom-up deletion
     * Push is the textbook sift-up; removal from the middle (cancel)
     * fills the hole with the last entry and sifts it whichever way it
     * belongs. Pop uses Floyd's bottom-up trick:
     * sift the root hole all the way to a leaf (one child-vs-child
     * compare per level, which the compiler turns into a conditional
     * move), drop the last element into the hole, and sift it up —
     * usually a step or two, since that element came from leaf depth.
     * This roughly halves comparisons per pop versus the classic
     * top-down sift, and pop is the kernel's single hottest loop.
     * Every write goes through put(), which keeps heapPos current.
     * @{ */
    void
    put(std::size_t i, const HeapEntry& entry)
    {
        heap[i] = entry;
        heapPos[entry.slot] = static_cast<std::uint32_t>(i);
    }

    void
    siftUp(std::size_t i)
    {
        HeapEntry entry = heap[i];
        while (i > 0) {
            std::size_t parent = (i - 1) >> 1;
            if (!firesBefore(entry, heap[parent]))
                break;
            put(i, heap[parent]);
            i = parent;
        }
        put(i, entry);
    }

    void
    siftDown(std::size_t i)
    {
        HeapEntry entry = heap[i];
        const std::size_t n = heap.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && firesBefore(heap[child + 1], heap[child]))
                ++child;
            if (!firesBefore(heap[child], entry))
                break;
            put(i, heap[child]);
            i = child;
        }
        put(i, entry);
    }

    HeapEntry
    popTop()
    {
        HeapEntry top = heap.front();
        const std::size_t n = heap.size() - 1;
        if (n > 0) {
            // Sift the root hole down to a leaf.
            std::size_t hole = 0;
            for (;;) {
                std::size_t child = 2 * hole + 1;
                if (child + 1 < n) {
                    // Overlap the next level's (data-dependent) loads;
                    // clamp to the last entry so the address stays
                    // inside the heap near the leaves.
                    __builtin_prefetch(&heap[std::min(4 * hole + 3, n)]);
                    __builtin_prefetch(&heap[std::min(4 * hole + 5, n)]);
                    child += firesBefore(heap[child + 1], heap[child]);
                } else if (child >= n)
                    break;
                put(hole, heap[child]);
                hole = child;
            }
            // Re-insert the last element at the hole, sifting up.
            HeapEntry entry = heap[n];
            while (hole > 0) {
                std::size_t parent = (hole - 1) >> 1;
                if (!firesBefore(entry, heap[parent]))
                    break;
                put(hole, heap[parent]);
                hole = parent;
            }
            put(hole, entry);
        }
        heap.pop_back();
        return top;
    }

    /** Take out the entry at heap index @p i. The last entry fills the
     *  hole: if it fires before the removed one it can only move up
     *  (the hole's subtree fires after the removed entry), otherwise
     *  only down (the hole's ancestors fire before it). */
    void
    removeAt(std::size_t i)
    {
        const HeapEntry removed = heap[i];
        const HeapEntry last = heap.back();
        heap.pop_back();
        if (i == heap.size())
            return;
        put(i, last);
        if (firesBefore(last, removed))
            siftUp(i);
        else
            siftDown(i);
    }
    /** @} */

    bool
    handlePending(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < slabCount && recordAt(slot).generation == gen;
    }

    Tick
    handleWhen(std::uint32_t slot, std::uint32_t gen) const
    {
        return handlePending(slot, gen) ? heap[heapPos[slot]].when : 0;
    }

    bool
    rescheduleHandle(std::uint32_t slot, std::uint32_t gen, Tick when)
    {
        if (!handlePending(slot, gen))
            return false;
        CHARLLM_ASSERT(when >= currentTick,
                       "rescheduling into the past: ", when, " < ",
                       currentTick);
        const std::size_t i = heapPos[slot];
        const HeapEntry old = heap[i];
        heap[i].when = when;
        heap[i].seq = (*seqPtr)++;
        if (firesBefore(heap[i], old))
            siftUp(i);
        else
            siftDown(i);
        ++cancelledEvents;
        ++rescheduledEvents;
        return true;
    }

    void
    cancelHandle(std::uint32_t slot, std::uint32_t gen)
    {
        if (!handlePending(slot, gen))
            return;
        // Cancelling takes no sequence number and (when, seq) is a
        // strict total order, so the other events pop exactly as they
        // would have with this one left to fire as a no-op.
        removeAt(heapPos[slot]);
        freeSlot(slot);
        ++cancelledEvents;
    }

    /** Recycle @p slot. The generation moves first, so no handle reads
     *  the slot as pending while the closure's captures are released. */
    void
    freeSlot(std::uint32_t slot)
    {
        Record& record = recordAt(slot);
        ++record.generation; // invalidates outstanding handles
        record.fn.reset();
        freeSlots.push_back(slot);
    }

    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    /** Sequence source: this queue's own counter by default, or a
     *  counter shared across domain queues (shareSequence). The
     *  self-reference is safe: EventQueue is non-copyable and
     *  non-movable, so the address never goes stale. */
    std::uint64_t* seqPtr = &nextSeq;
    std::uint64_t poppedEvents = 0;
    std::uint64_t cancelledEvents = 0;
    std::uint64_t rescheduledEvents = 0;
    std::vector<std::unique_ptr<Record[]>> chunks;
    std::size_t slabCount = 0;
    std::vector<std::uint32_t> freeSlots;
    std::vector<HeapEntry> heap;
    /** Heap index of each slot's entry (meaningful while the slot's
     *  event is pending; a slot has at most one entry). A dense side
     *  array: the sifts write it on every move, and it stays in cache
     *  where the one-line records would not. */
    std::vector<std::uint32_t> heapPos;
};

inline bool
EventHandle::pending() const
{
    return owner && owner->handlePending(slot, generation);
}

inline void
EventHandle::cancel()
{
    if (owner)
        owner->cancelHandle(slot, generation);
}

inline Tick
EventHandle::when() const
{
    return owner ? owner->handleWhen(slot, generation) : 0;
}

inline bool
EventHandle::reschedule(Tick when)
{
    return owner && owner->rescheduleHandle(slot, generation, when);
}

} // namespace sim
} // namespace charllm

#endif // CHARLLM_SIM_EVENT_QUEUE_HH
