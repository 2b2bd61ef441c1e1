/**
 * @file
 * Host-clock layer attribution by timed replay.
 *
 * The server builds its functional device chain internally, so the
 * benchmark cannot time its layers in place.  Instead a traced run
 * records the functional op stream (StreamOp) and replays it through
 * a chain built here from the same public classes,
 *
 *   lfs::Lfs -> [time: integrity] -> integrity::VerifyingDevice
 *            -> [time: raid] -> fs::ArrayBlockDevice -> raid::RaidArray
 *
 * with a timing fs::BlockDevice decorator at each boundary.  A
 * layer's self time is its span minus its children's spans.  Spans
 * are kept in memory, one per replayed op, and written at exit.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lfs/lfs.hh"
#include "raid/raid_layout.hh"
#include "workloads.hh"

namespace perfbench {

/** Geometry of the server's functional chain, copied for the replay. */
struct ChainConfig
{
    raid2::raid::LayoutConfig layout; // numDisks resolved
    std::uint64_t diskBytes = 0;
    std::uint64_t deviceBytes = 0;
    raid2::lfs::Lfs::Params fsParams;
};

/** One replayed op: wall-clock span plus its children's inclusive
 *  time at the integrity and raid boundaries (nanoseconds). */
struct Span
{
    std::uint32_t world = 0;
    std::uint32_t op = 0;
    StreamOp::Kind kind = StreamOp::Kind::Sync;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t integrityNs = 0;
    std::int64_t raidNs = 0;
};

using FsStep = std::function<void(raid2::lfs::Lfs &)>;

/**
 * Format a fresh chain, run @p populate on it untimed, replay @p ops
 * timed (appending one Span per op to @p spans, tagged @p world),
 * then run @p check on the result untimed.
 */
ReplayTimes replayStream(const ChainConfig &cfg, const FsStep &populate,
                         const std::vector<StreamOp> &ops,
                         const FsStep &check, std::uint32_t world,
                         std::vector<Span> &spans);

/** Write @p spans as CSV; false if the file cannot be written. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
