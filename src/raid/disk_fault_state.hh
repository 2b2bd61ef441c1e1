/**
 * @file
 * Per-disk fault state of one array, with one owner.
 *
 * RAID-II has one set of disks behind the XBUS board (§2.3), so a
 * member disk is dead, or a sector range unreadable, for every layer
 * at once.  DiskFaultState holds that state — the per-disk failed
 * flags and the latent-defect interval set — for both planes: the
 * timed SimArray owns one, and a functional RaidArray twin is built
 * against it (a standalone RaidArray owns its own).  Whoever changes
 * the state (the fault controller, a RebuildJob, the scrubber, a test)
 * changes it once, and the attached twin's bytes follow in the same
 * call: a failed disk is destroyed, a latent range is garbled, a
 * repaired range is reconstructed and rewritten, and a restored disk
 * is rebuilt from the survivors before its flag clears.  Only a repair
 * or an overwrite that the timed plane also performs may clear a
 * latent record; the twin's functional-only fixes (parity heals,
 * checksum repairs) restore its bytes and leave the record.
 */

#ifndef RAID2_RAID_DISK_FAULT_STATE_HH
#define RAID2_RAID_DISK_FAULT_STATE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace raid2::raid {

class RaidArray;

/** What one latent repair cleared. */
struct LatentRepair
{
    /** Latent intervals the repaired range touched. */
    std::uint64_t ranges = 0;
    /** Defective bytes inside the repaired range. */
    std::uint64_t bytes = 0;
};

/** Failed flags + latent-defect map of one array's member disks. */
class DiskFaultState
{
  public:
    /** Disk offset -> length; non-overlapping, non-adjacent. */
    using Intervals = std::map<std::uint64_t, std::uint64_t>;

    explicit DiskFaultState(unsigned num_disks);

    DiskFaultState(const DiskFaultState &) = delete;
    DiskFaultState &operator=(const DiskFaultState &) = delete;

    unsigned numDisks() const
    {
        return static_cast<unsigned>(failed.size());
    }

    /** @{ Whole-disk failure. */
    bool isFailed(unsigned d) const { return failed.at(d); }
    unsigned failedCount() const;
    /** Mark @p d failed; its contents and latent ranges are gone. */
    void failDisk(unsigned d);
    /** Bring a failed @p d back online, its contents rebuilt from the
     *  survivors first.  No-op if @p d is not failed. */
    void restoreDisk(unsigned d);
    /** @} */

    /** @{ Latent media defects (grown, unreadable sector ranges). */
    /** Garble [off, off+bytes) of disk @p d and record it unreadable.
     *  No-op on a failed disk. */
    void addLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** True if disk @p d has a latent range intersecting
     *  [off, off+bytes). */
    bool latentOverlaps(unsigned d, std::uint64_t off,
                        std::uint64_t bytes) const;
    /** The defective parts of [off, off+bytes) on disk @p d were
     *  reconstructed from redundancy and rewritten in place: repair
     *  them and clear the defects. */
    LatentRepair repairLatent(unsigned d, std::uint64_t off,
                              std::uint64_t bytes);
    /** [off, off+bytes) of disk @p d was overwritten with good data:
     *  forget the defects there without repairing them. */
    void clearLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** fn(off, bytes) for each defective subrange of [off, off+bytes)
     *  on disk @p d, in disk order. */
    template <typename Fn>
    void forEachLatent(unsigned d, std::uint64_t off, std::uint64_t bytes,
                       Fn &&fn) const
    {
        const Intervals &m = _latents.at(d);
        if (bytes == 0)
            return;
        const std::uint64_t end = off + bytes;
        for (auto it = firstEndingAfter(m, off);
             it != m.end() && it->first < end; ++it) {
            const std::uint64_t s = std::max(it->first, off);
            fn(s, std::min(it->first + it->second, end) - s);
        }
    }
    const Intervals &latents(unsigned d) const { return _latents.at(d); }
    /** Outstanding latent ranges / bytes across all disks. */
    std::uint64_t latentRanges() const;
    std::uint64_t latentBytes() const;
    /** @} */

  private:
    /** The twin attaches itself on construction, detaches on
     *  destruction. */
    friend class RaidArray;

    /** First interval of @p m that ends after @p off. */
    static Intervals::const_iterator firstEndingAfter(const Intervals &m,
                                                      std::uint64_t off);

    std::vector<bool> failed;
    std::vector<Intervals> _latents;
    /** Functional array whose bytes follow this state, if any. */
    RaidArray *twin = nullptr;
};

} // namespace raid2::raid

#endif // RAID2_RAID_DISK_FAULT_STATE_HH
