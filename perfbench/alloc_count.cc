/**
 * @file
 * Counting global allocator: every operator new in the benchmark
 * binary (library code included) bumps a thread-local counter, so a
 * timed call's allocations are the counter's difference across it.
 * Storage comes from malloc, so the cost over the default allocator
 * is one thread-local increment.
 */

#include <cstdlib>
#include <new>

#include "bench.hh"

namespace
{

thread_local std::uint64_t t_allocs = 0;

void *
allocate(std::size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
perfbench::threadAllocs()
{
    return t_allocs;
}

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n == 0 ? 1 : n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n == 0 ? 1 : n);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
