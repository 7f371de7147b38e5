// Counting replacement of the global allocation functions, so the
// traced pass can report heap allocations per dispatched event. The
// benchmark is single-threaded; the counter is a relaxed atomic only so
// a stray library thread could not make it a data race.

#include <atomic>
#include <cstdlib>
#include <new>

#include "hostbench.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

void*
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
hostbench::allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
