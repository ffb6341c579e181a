/**
 * @file
 * Global allocation counter backing the zero-allocation tests.
 *
 * Replaces the global operator new/delete so a test can assert that
 * a hot path performs no heap allocation: each replaced operator new
 * bumps g_heap_allocations and takes its block from std::malloc, and
 * each replaced operator delete hands it back to std::free. The
 * nothrow pair (std::stable_sort's temporary buffer uses it) is
 * replaced as well, so every block these deletes free came from this
 * malloc; a nothrow new left to the runtime would be an
 * alloc-dealloc mismatch under ASan. Array and aligned forms stay
 * with the runtime, which pairs them with its own deletes.
 *
 * Replacement functions must be defined once per program: include
 * this header from exactly one translation unit of a test binary.
 * The deletes are kept out of line so GCC never sees the std::free
 * inlined against a pointer from operator new
 * (-Wmismatched-new-delete).
 */

#ifndef UAVF1_TESTS_ALLOC_GUARD_HH
#define UAVF1_TESTS_ALLOC_GUARD_HH

#include <atomic>
#include <cstdlib>
#include <new>

/** Global allocation counter backing the zero-allocation tests. */
std::atomic<std::size_t> g_heap_allocations{0};

void *
operator new(std::size_t size)
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // UAVF1_TESTS_ALLOC_GUARD_HH
