#include "sim/host_pool.hh"

#include <algorithm>
#include <chrono>
#include <sched.h>
#include <thread>
#include <unistd.h>

namespace raid2::sim {

namespace {

/** How long an idle worker spins before it sleeps.  The server
 *  verifies a 512 KB read about every 125 µs of host time, so a worker
 *  that spins this long is awake for the next one; waking a sleeping
 *  worker costs about as much as the loop it would help with. */
constexpr auto spinFor = std::chrono::microseconds(200);

/** Chunks per thread a loop is cut into: enough that a late worker
 *  still finds work, few enough that claiming stays cheap. */
constexpr std::size_t chunksPerThread = 4;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

unsigned
affinityWidth()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::clamp(unsigned(CPU_COUNT(&set)), 1u, HostPool::maxWidth);
}

} // namespace

HostPool::HostPool() : owner(getpid())
{
    const unsigned w = affinityWidth();
    for (unsigned i = 1; i < w; ++i) {
        pthread_t t;
        if (pthread_create(&t, nullptr, &HostPool::workerMain, this) != 0)
            break; // run with the workers we have
        threads.push_back(t);
    }
}

HostPool::~HostPool()
{
    if (getpid() != owner)
        return; // a forked child: the workers are not ours to join
    stop.store(true, std::memory_order_release);
    publish();
    for (pthread_t t : threads)
        pthread_join(t, nullptr);
}

HostPool &
HostPool::shared()
{
    static HostPool *pool = new HostPool;
    return *pool;
}

void
HostPool::run(std::size_t count, Body b, void *c)
{
    if (threads.empty() || count < 2 || getpid() != owner ||
        busy.test_and_set(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < count; ++i)
            b(c, i);
        return;
    }
    // No worker is inside a loop here (the last run waited for
    // active == 0 after closing), so the plain fields are ours.
    body = b;
    ctx = c;
    n = count;
    grain = std::max<std::size_t>(1, count / (width() * chunksPerThread));
    next.store(0, std::memory_order_relaxed);
    open.store(true);
    publish();

    work();

    // Close the loop, then wait out every worker that joined it: a
    // worker that joins later sees it closed and touches nothing.
    open.store(false);
    for (unsigned spins = 0; active.load() != 0; ++spins) {
        if (spins < 1024)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    busy.clear(std::memory_order_release);
}

void
HostPool::publish()
{
    // Dekker-style with the sleep in workerLoop(): either a worker
    // about to sleep sees the new generation, or this sees it counted
    // in sleepers and wakes it under the lock.
    gen.fetch_add(1);
    if (sleepers.load() != 0) {
        std::lock_guard<std::mutex> lock(sleepLock);
        wake.notify_all();
    }
}

void
HostPool::work()
{
    for (;;) {
        std::size_t i = next.fetch_add(grain, std::memory_order_relaxed);
        if (i >= n)
            return;
        const std::size_t end = std::min(i + grain, n);
        for (; i < end; ++i)
            body(ctx, i);
    }
}

void *
HostPool::workerMain(void *self)
{
    static_cast<HostPool *>(self)->workerLoop();
    return nullptr;
}

void
HostPool::workerLoop()
{
    // Workers start in the constructor, before the first publish().
    std::uint32_t seen = 0;
    for (;;) {
        const auto deadline = std::chrono::steady_clock::now() + spinFor;
        std::uint32_t g;
        for (unsigned k = 1; (g = gen.load(std::memory_order_acquire)) ==
                             seen;
             ++k) {
            if (k % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
                std::unique_lock<std::mutex> lock(sleepLock);
                sleepers.fetch_add(1);
                wake.wait(lock, [&] { return gen.load() != seen; });
                sleepers.fetch_sub(1);
            } else {
                cpuRelax();
            }
        }
        seen = g;
        if (stop.load(std::memory_order_acquire))
            return;
        // Dekker-style with run(): either this worker sees the loop
        // closed, or run() sees it active and waits for it.
        active.fetch_add(1);
        if (open.load())
            work();
        active.fetch_sub(1);
    }
}

} // namespace raid2::sim
