/**
 * @file
 * A small pool of host threads for the functional plane's pure work.
 *
 * The functional data plane (real bytes through RAID + LFS) runs on
 * the caller's thread.  One part of it is pure and embarrassingly
 * parallel: hashing the blocks a read verifies.  HostPool splits such
 * a loop across the CPUs this process may use.  It never touches the
 * simulated clock: callers run it inside one event handler, wait for
 * it to finish, and then go on as if the loop had run serially.
 *
 * - Width: the CPUs in the calling thread's affinity mask at
 *   construction, capped at maxWidth.  The caller is one of them, so
 *   a one-CPU mask spawns no worker and every loop runs inline.
 * - Fork-safe: in a forked child every pool runs inline and never
 *   waits for, or joins, the parent's threads (they do not exist
 *   there).
 * - Concurrent callers: one caller at a time gets the workers; a
 *   caller that finds them busy runs its loop inline.
 * - Idle: a worker spins for a bounded time after each loop, then
 *   sleeps on a condition variable until the next one.
 */

#ifndef RAID2_SIM_HOST_POOL_HH
#define RAID2_SIM_HOST_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <pthread.h>
#include <sys/types.h>
#include <type_traits>
#include <vector>

namespace raid2::sim {

class HostPool
{
  public:
    /** Threads a pool may run a loop on, the caller included. */
    static constexpr unsigned maxWidth = 4;

    HostPool();
    ~HostPool();

    HostPool(const HostPool &) = delete;
    HostPool &operator=(const HostPool &) = delete;

    /** The process-wide pool: built on first use, never destroyed, so
     *  no exit path (a forked child's included) joins a thread. */
    static HostPool &shared();

    /** Threads that run a loop, the caller included. */
    unsigned width() const { return unsigned(threads.size()) + 1; }
    /** Threads this pool spawned (width() - 1). */
    unsigned workers() const { return unsigned(threads.size()); }

    /**
     * Call fn(i) once for every i in [0, n), split across the pool,
     * and return when every call has returned.  Calls run in no fixed
     * order and may run at once: fn must only read shared state and
     * write state no other index writes.  fn must not throw.
     */
    template <typename Fn>
    void
    forEach(std::size_t n, Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        run(n,
            [](void *f, std::size_t i) { (*static_cast<F *>(f))(i); },
            const_cast<void *>(static_cast<const void *>(&fn)));
    }

  private:
    using Body = void (*)(void *, std::size_t);

    void run(std::size_t n, Body body, void *ctx);
    /** Claim and run chunks of the open loop until none is left. */
    void work();
    static void *workerMain(void *self);
    void workerLoop();
    /** Start the next generation: a new loop, or stop. */
    void publish();

    /** The open loop; written only while no worker is inside it. */
    Body body = nullptr;
    void *ctx = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;

    /** Claimed by every thread in a loop, so apart from gen, which
     *  idle workers spin on. */
    alignas(64) std::atomic<std::size_t> next{0}; ///< next unclaimed index
    alignas(64) std::atomic<std::uint32_t> gen{0}; ///< bumped once per loop
    std::atomic<bool> open{false};      ///< the loop takes workers
    std::atomic<unsigned> active{0};    ///< workers inside the loop
    std::atomic<bool> stop{false};
    std::atomic_flag busy = ATOMIC_FLAG_INIT; ///< a caller holds the pool

    /** Where idle workers sleep once their spin runs out. */
    std::mutex sleepLock;
    std::condition_variable wake;
    std::atomic<unsigned> sleepers{0}; ///< workers in, or entering, wake

    /** The process that spawned the workers; in any other (a forked
     *  child) they do not exist. */
    const pid_t owner;
    std::vector<pthread_t> threads;
};

} // namespace raid2::sim

#endif // RAID2_SIM_HOST_POOL_HH
