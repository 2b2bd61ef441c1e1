/**
 * @file
 * Functional RAID array: real bytes, real parity.
 *
 * This is the data plane of the reproduction: an in-memory array of
 * member disks with true XOR parity maintenance, mirrored writes,
 * degraded-mode reconstruction and full rebuild.  The timing plane
 * (SimArray) shares the same RaidLayout, so every timed experiment has
 * a functional twin whose correctness the tests assert.
 */

#ifndef RAID2_RAID_RAID_ARRAY_HH
#define RAID2_RAID_RAID_ARRAY_HH

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "raid/raid_layout.hh"
#include "sim/stats.hh"

namespace raid2::raid {

/** In-memory functional disk array with parity. */
class RaidArray
{
  public:
    RaidArray(const LayoutConfig &cfg, std::uint64_t disk_bytes);

    const RaidLayout &layout() const { return _layout; }
    std::uint64_t capacity() const { return _layout.dataCapacity(); }
    unsigned numDisks() const { return _layout.numDisks(); }

    /** Write @p data at logical byte @p off, maintaining redundancy. */
    void write(std::uint64_t off, std::span<const std::uint8_t> data);

    /** Read into @p out from logical byte @p off; reconstructs data
     *  living on a failed disk from the survivors. */
    void read(std::uint64_t off, std::span<std::uint8_t> out) const;

    /** Mark a disk failed (its contents are destroyed). */
    void failDisk(unsigned d);

    /** Rebuild a failed disk's contents from the survivors. */
    void rebuildDisk(unsigned d);

    bool isFailed(unsigned d) const { return failed.at(d); }
    unsigned failedCount() const;

    /** @{ Latent (unreadable) media errors.
     *
     * A latent range models a grown media defect: the stored bytes are
     * garbled in place, and reads route around them by reconstructing
     * from redundancy (parity for levels 3/5, the mirror for level 1).
     * The redundancy still encodes the original data, so reconstruction
     * recovers it exactly; repairLatent() writes it back and clears the
     * defect, which is what the scrubber does in bulk.
     *
     * Recoverability invariant (enforced with fatal errors, maintained
     * by fault::FaultController): latent ranges on different disks
     * never overlap in disk-offset space, and no latents exist while a
     * disk is failed.  Either condition would make the range
     * unrecoverable — a data-loss event, which the controller accounts
     * for instead of injecting.
     */
    /** Garble @p bytes at disk offset @p off of disk @p d. */
    void injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** True if disk @p d has a latent range intersecting [off, off+bytes). */
    bool latentOverlaps(unsigned d, std::uint64_t off,
                        std::uint64_t bytes) const;
    /** True if any disk other than @p d has a latent range intersecting
     *  [off, off+bytes) — i.e. reconstructing @p d there would fail. */
    bool latentCollision(unsigned d, std::uint64_t off,
                         std::uint64_t bytes) const;
    /** Reconstruct the latent range from redundancy, write it back, and
     *  clear the defect. */
    void repairLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** Repair every outstanding latent range.  @return ranges repaired. */
    std::uint64_t scrub();
    /** Outstanding latent ranges / bytes across all disks. */
    std::uint64_t latentCount() const;
    std::uint64_t latentBytes() const;
    const std::map<std::uint64_t, std::uint64_t> &
    latentIntervals(unsigned d) const
    {
        return latents.at(d);
    }
    /** @{ Cumulative counters (reads served via reconstruction, repairs). */
    std::uint64_t latentReconstructedBytes() const
    {
        return _latentReconstructedBytes;
    }
    std::uint64_t latentRepairs() const { return _latentRepairs; }
    std::uint64_t latentsInjected() const { return _latentsInjected; }
    /** @} */
    /** @} */

    /** @{ Parity-work counters (levels 3/5).
     *
     * parity.recomputes counts every parity computation the array
     * performs — one per stripe whose parity is (re)generated, by
     * either path.  parity.fullStripeWrites is the subset served by
     * the single-pass full-stripe path (parity folded straight from
     * the caller's buffer, no pre-read).  A full-segment LFS write
     * should show recomputes == stripes touched — anything higher is
     * redundant parity work. */
    const sim::Scalar &parityRecomputes() const
    {
        return _parityRecomputes;
    }
    const sim::Scalar &parityFullStripeWrites() const
    {
        return _parityFullStripes;
    }
    /** Register "<prefix>.parity.recomputes" /
     *  "<prefix>.parity.fullStripeWrites". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;
    /** @} */

    /** @{ Integrity-repair primitives (see src/integrity/).
     *
     * tryReconstructRange() is the non-fatal sibling of the internal
     * reconstruction path: it recovers what disk @p dead should hold at
     * [disk_off, disk_off+out.size()) from redundancy (the mirror for
     * level 1, the XOR of the survivors for levels 3/5) and reports
     * failure — RAID-0, a second failed disk, a survivor latent range
     * overlapping the request, or a range beyond the parity-covered
     * region — by returning false with @p out untouched.  It never
     * returns stale or partially reconstructed bytes.
     */
    bool tryReconstructRange(unsigned dead, std::uint64_t disk_off,
                             std::span<std::uint8_t> out) const;
    /** Patch verified bytes straight into disk @p d's buffer without
     *  touching parity (the parity already encodes @p data — this is
     *  the repair-writeback step, same shape as repairLatent). */
    void patchDiskRange(unsigned d, std::uint64_t off,
                        std::span<const std::uint8_t> data);
    /** Re-derive the redundancy covering [off, off+len) of disk @p d
     *  from (verified) data: recompute parity for stripes where @p d
     *  is the parity disk, or re-copy the mirror pair for level 1.
     *  @return false if the array is degraded (heal needs all disks). */
    bool healRedundancyRange(unsigned d, std::uint64_t off,
                             std::uint64_t len);
    /** @} */

    /** True if every stripe's parity equals the XOR of its data (and
     *  every mirror pair matches).  Levels 0 trivially true. */
    bool redundancyConsistent() const;

    /** Raw member-disk bytes (tests / fault injection). */
    std::span<const std::uint8_t> diskData(unsigned d) const;
    std::span<std::uint8_t> diskData(unsigned d);

  private:
    void recomputeParity(std::uint64_t stripe);
    void reconstructRange(unsigned dead, std::uint64_t disk_off,
                          std::span<std::uint8_t> out) const;
    /** Copy [off, off+out.size()) of disk @p d into @p out, routing
     *  latent subranges through reconstruction. */
    void readDiskRange(unsigned d, std::uint64_t off,
                       std::span<std::uint8_t> out) const;
    /** Make stripe @p s safe to recompute parity over: repair latent
     *  ranges in its units and, if a data unit sits on a failed disk,
     *  reconstruct that unit's content into the dead buffer first. */
    void prepareStripeForUpdate(std::uint64_t s);
    /** Repair the portions of d's latent ranges inside [off, off+bytes). */
    void repairLatentIn(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** Forget (without repairing) latent state in [off, off+bytes). */
    void eraseLatentRange(unsigned d, std::uint64_t off,
                          std::uint64_t bytes);

    std::uint8_t *disk(unsigned d) { return store.get() + d * diskBytes; }
    const std::uint8_t *disk(unsigned d) const
    {
        return store.get() + d * diskBytes;
    }

    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    RaidLayout _layout;
    std::uint64_t diskBytes;
    /** Every member disk in one block: disk d at d * diskBytes. */
    std::unique_ptr<std::uint8_t[], FreeDeleter> store;
    std::vector<bool> failed;
    /** Per-disk latent ranges: start offset -> length, non-overlapping. */
    std::vector<std::map<std::uint64_t, std::uint64_t>> latents;
    mutable std::uint64_t _latentReconstructedBytes = 0;
    std::uint64_t _latentRepairs = 0;
    std::uint64_t _latentsInjected = 0;
    sim::Scalar _parityRecomputes;
    sim::Scalar _parityFullStripes;
};

} // namespace raid2::raid

#endif // RAID2_RAID_RAID_ARRAY_HH
