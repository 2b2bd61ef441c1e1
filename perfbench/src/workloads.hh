/**
 * @file
 * The benchmark's three workloads against one Raid2Server.
 *
 * Each workload builds one or more simulated worlds.  A world is a
 * server (bench::lfsConfig(), integrity on), its request scheduler
 * and a seeded file population; building it is the set-up phase.
 * The measured phase then drives client sessions through the public
 * RaidFileClient/RequestScheduler API from this (single) host thread:
 * sessions are event-driven state machines, not threads or sockets.
 *
 *  - serve:   open-loop Poisson read fleet, one world per offered rate;
 *  - ingest:  closed-loop writers on a small device, so the log wraps
 *             and the cleaner runs;
 *  - rebuild: closed-loop 80/20 read/write mix while disk 3 fails,
 *             a hot spare is rebuilt and the scrubber sweeps.
 *
 * After the measured phase every world is checked: each file re-read
 * through the verifying device must equal the benchmark-side shadow,
 * fsck must be clean, verify-on-read must have detected nothing and,
 * for rebuild, the functional array's redundancy must be consistent
 * with no data-loss events.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lfs/format.hh"
#include "sim/types.hh"

namespace perfbench {

enum class Workload { Serve, Ingest, Rebuild };

/** Parse "serve" / "ingest" / "rebuild"; false on anything else. */
bool parseWorkload(const std::string &name, Workload &out);

/**
 * One entry of the functional op stream, in the order the functional
 * plane applied it: creates, writes and syncs come from the server's
 * FsOp observer, reads from the benchmark's generator, and disk
 * failure/restore markers from the functional array's state.
 */
struct StreamOp
{
    enum class Kind : std::uint8_t {
        Create, Write, Sync, Read, FailDisk, RestoreDisk
    };
    Kind kind = Kind::Sync;
    raid2::lfs::InodeNum ino = 0;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    unsigned disk = 0;
    std::string path;
};

/** Sim-clock results of one measured phase (all ticks simulated). */
struct PhaseResult
{
    /** Nominal offered rate (open loop; 0 for closed loops). */
    double offeredOps = 0.0;
    /** Poisson arrivals generated inside the offered window. */
    std::uint64_t arrivals = 0;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    /** Dropped after max retries, DataCorrupt, or any other non-Ok. */
    std::uint64_t failed = 0;
    /** Busy/Throttled completions that were retried. */
    std::uint64_t rejects = 0;
    std::uint64_t bytes = 0;
    std::uint64_t writeBytes = 0;
    raid2::sim::Tick start = 0;
    raid2::sim::Tick end = 0;
    raid2::sim::Tick window = 0; // open loop: arrival window length
    /** First-issue-to-final-completion latency, every ok op. */
    std::vector<double> allMs;
    /** Same, standard-class (small, Ethernet) ops only. */
    std::vector<double> smallMs;

    /** @{ rebuild only. */
    raid2::sim::Tick failedAt = 0;
    raid2::sim::Tick rebuiltAt = 0;
    double rebuildMs = 0.0;
    std::uint64_t degradedBytes = 0;
    std::uint64_t dataLossEvents = 0;
    /** @} */
};

/** Host-clock self times of the timed replay (seconds). */
struct ReplayTimes
{
    double lfs = 0.0;
    double integrity = 0.0;
    double raid = 0.0;
    double total = 0.0;
    std::uint64_t ops = 0;
};

/** Everything measured on one world. */
struct WorldResult
{
    PhaseResult phase;
    double setupS = 0.0; // host: build + populate + sync
    double runS = 0.0;   // host: the measured phase
    std::uint64_t simEvents = 0;
    /** Correctness problems (empty = all checks passed). */
    std::vector<std::string> problems;

    /** @{ Traced runs only. */
    std::string registryStart; // StatsRegistry JSON at phase start
    std::string registryEnd;   // ... and once the queue drained
    double registryMs = 0.0;   // simulated time between the two
    ReplayTimes replay;
    /** @} */
};

struct RunOptions
{
    Workload workload = Workload::Serve;
    std::uint64_t seed = 1;
    /** Record the op stream, snapshot the registry and replay the
     *  stream through the timed device chain. */
    bool traced = false;
    /** Where the traced run writes its per-op spans ("" = nowhere). */
    std::string spansPath;
};

/** The bytes Raid2Server::fileWrite() stores at [off, off+out.size())
 *  of inode @p ino — the oracle for every write the fleet makes. */
void writePayload(raid2::lfs::InodeNum ino, std::uint64_t off,
                  std::span<std::uint8_t> out);

/** Run every world of the workload; one WorldResult per world. */
std::vector<WorldResult> runWorkload(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
