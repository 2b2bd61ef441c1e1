#include "raid/raid_array.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "raid/parity.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::raid {

RaidArray::RaidArray(const LayoutConfig &cfg, std::uint64_t disk_bytes,
                     DiskFaultState *shared)
    : _layout(cfg, disk_bytes), diskBytes(disk_bytes),
      // calloc, not a zero-filled vector: a large block comes straight
      // from the kernel's zero pages, so the array costs memory only
      // for the disk regions actually written.
      store(static_cast<std::uint8_t *>(
          std::calloc(cfg.numDisks, static_cast<std::size_t>(disk_bytes)))),
      ownState(shared ? nullptr
                      : std::make_unique<DiskFaultState>(cfg.numDisks)),
      state(shared ? shared : ownState.get())
{
    if (cfg.numDisks > kMaxFoldSources)
        sim::fatal("RaidArray: %u disks exceeds the %zu-way parity "
                   "fold limit",
                   cfg.numDisks, kMaxFoldSources);
    if (!store)
        sim::fatal("RaidArray: cannot allocate %u x %llu bytes",
                   cfg.numDisks, (unsigned long long)disk_bytes);
    if (state->numDisks() != cfg.numDisks || state->twin)
        sim::panic("RaidArray: fault state of %u disks is not free for "
                   "a %u-disk twin", state->numDisks(), cfg.numDisks);
    state->twin = this;
}

RaidArray::~RaidArray()
{
    state->twin = nullptr;
}

std::span<const std::uint8_t>
RaidArray::diskData(unsigned d) const
{
    if (d >= numDisks())
        sim::panic("diskData: bad disk %u", d);
    return {disk(d), static_cast<std::size_t>(diskBytes)};
}

std::span<std::uint8_t>
RaidArray::diskData(unsigned d)
{
    if (d >= numDisks())
        sim::panic("diskData: bad disk %u", d);
    return {disk(d), static_cast<std::size_t>(diskBytes)};
}

void
RaidArray::recomputeParity(std::uint64_t stripe)
{
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t base = stripe * unit;
    const unsigned pd = _layout.parityDisk(stripe);
    const unsigned K = _layout.dataUnitsPerStripe();
    const std::uint8_t *srcs[kMaxFoldSources];
    for (unsigned k = 0; k < K; ++k)
        srcs[k] = disk(_layout.dataDisk(stripe, k)) + base;
    xorFold(disk(pd) + base, srcs, K,
            static_cast<std::size_t>(unit));
    _parityRecomputes.inc();
}

/**
 * Walk the data units a logical range touches, in logical order:
 * fn(stripe, disk, disk_offset, logical_offset, bytes) per piece.
 * Valid for levels 3 and 5 — Level 3's constructor pins the unit to
 * the sector and its rows are logically contiguous, so the same
 * stripe arithmetic covers both.
 */
template <typename Fn>
static void
forEachDataUnit(const RaidLayout &layout, std::uint64_t off,
                std::uint64_t len, Fn &&fn)
{
    const std::uint64_t unit = layout.unitBytes();
    const std::uint64_t sdb = layout.stripeDataBytes();
    std::uint64_t pos = off;
    const std::uint64_t end = off + len;
    while (pos < end) {
        const std::uint64_t s = pos / sdb;
        const std::uint64_t in_stripe = pos % sdb;
        const unsigned k = static_cast<unsigned>(in_stripe / unit);
        const std::uint64_t in_unit = in_stripe % unit;
        const std::uint64_t n = std::min(end - pos, unit - in_unit);
        fn(s, layout.dataDisk(s, k), s * unit + in_unit, pos, n);
        pos += n;
    }
}

void
RaidArray::write(std::uint64_t off, std::span<const std::uint8_t> data)
{
    if (data.empty())
        return;
    const RaidLevel level = _layout.level();

    if (level == RaidLevel::Raid0 || level == RaidLevel::Raid1) {
        for (const DiskExtent &e :
             _layout.mapRange(off, data.size(), false)) {
            const std::uint8_t *src =
                data.data() + (e.logicalOffset - off);
            std::memcpy(disk(e.disk) + e.diskOffset, src,
                        static_cast<std::size_t>(e.bytes));
            // Overwriting a latent sector rewrites (remaps) it.
            state->clearLatent(e.disk, e.diskOffset, e.bytes);
            if (level == RaidLevel::Raid1) {
                const unsigned m = _layout.mirrorDisk(e.disk);
                std::memcpy(disk(m) + e.diskOffset, src,
                            static_cast<std::size_t>(e.bytes));
                state->clearLatent(m, e.diskOffset, e.bytes);
            }
        }
        return;
    }

    // Levels 3/5: stripe-aware.  Whole stripes take the single-pass
    // path — every data unit comes from the caller's buffer, so parity
    // is one k-way XOR fold straight from the source, with no pre-read
    // of the old contents.  Only the ragged edges (first/last partial
    // stripe) pay the read-modify-write.
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t sdb = _layout.stripeDataBytes();
    const unsigned K = _layout.dataUnitsPerStripe();
    std::uint64_t pos = off;
    const std::uint64_t end = off + data.size();
    const std::uint8_t *srcs[kMaxFoldSources];
    while (pos < end) {
        const std::uint64_t s = pos / sdb;
        const std::uint64_t in_stripe = pos % sdb;
        const std::uint64_t take = std::min(end - pos, sdb - in_stripe);
        const std::uint64_t base = s * unit;
        const std::uint8_t *src = data.data() + (pos - off);

        if (take == sdb) {
            // Full stripe.  New data lands in every buffer (including
            // a failed disk's — kept logically true by convention) and
            // fully overwrites any latent defect.
            for (unsigned k = 0; k < K; ++k) {
                const unsigned d = _layout.dataDisk(s, k);
                srcs[k] = src + k * unit;
                std::memcpy(disk(d) + base, srcs[k],
                            static_cast<std::size_t>(unit));
                state->clearLatent(d, base, unit);
            }
            const unsigned pd = _layout.parityDisk(s);
            xorFold(disk(pd) + base, srcs, K,
                    static_cast<std::size_t>(unit));
            state->clearLatent(pd, base, unit);
            _parityRecomputes.inc();
            _parityFullStripes.inc();
        } else {
            // Ragged edge: bring the stripe to a known-good state,
            // overlay the new bytes, recompute parity once.
            // Only the bytes written here — the touched pieces and the
            // whole parity unit, as the timed update writes them — lose
            // their latent records.
            prepareStripeForUpdate(s);
            forEachDataUnit(
                _layout, pos, take,
                [&](std::uint64_t, unsigned d, std::uint64_t doff,
                    std::uint64_t lpos, std::uint64_t n) {
                    std::memcpy(disk(d) + doff,
                                data.data() + (lpos - off),
                                static_cast<std::size_t>(n));
                    state->clearLatent(d, doff, n);
                });
            recomputeParity(s);
            state->clearLatent(_layout.parityDisk(s), base, unit);
        }
        pos += take;
    }
}

void
RaidArray::prepareStripeForUpdate(std::uint64_t s)
{
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t base = s * unit;
    // Parity needs nothing: recomputeParity rewrites it wholesale.
    for (unsigned k = 0; k < _layout.dataUnitsPerStripe(); ++k) {
        const unsigned d = _layout.dataDisk(s, k);
        if (isFailed(d)) {
            // Reconstruct the dead unit's pre-write content into its
            // buffer so the parity recompute re-encodes the bytes the
            // write does not touch.  Without this, a degraded
            // partial-stripe write would fold the destroyed buffer
            // into parity and lose the untouched region of the unit.
            reconstructRange(d, base,
                             {disk(d) + base,
                              static_cast<std::size_t>(unit)});
        } else {
            reconstructLatent(d, base, unit);
        }
    }
}

void
RaidArray::reconstructRange(unsigned dead, std::uint64_t disk_off,
                            std::span<std::uint8_t> out) const
{
    // Every aligned byte position forms a parity group across all
    // disks, so the missing disk's bytes are the XOR fold of the
    // others (one pass over out instead of numDisks-1).
    const std::uint8_t *srcs[kMaxFoldSources];
    std::size_t k = 0;
    for (unsigned d = 0; d < numDisks(); ++d) {
        if (d == dead)
            continue;
        if (isFailed(d))
            sim::fatal("RaidArray: double failure (disks %u and %u)", dead,
                       d);
        if (latentOverlaps(d, disk_off, out.size()))
            sim::fatal("RaidArray: range [%llu, +%zu) of disk %u is "
                       "unrecoverable: survivor %u has a latent error there",
                       (unsigned long long)disk_off, out.size(), dead, d);
        srcs[k++] = disk(d) + disk_off;
    }
    xorFold(out.data(), srcs, k, out.size());
}

bool
RaidArray::tryReconstructRange(unsigned dead, std::uint64_t disk_off,
                               std::span<std::uint8_t> out) const
{
    if (out.empty())
        return true;
    if (dead >= numDisks() || disk_off + out.size() > diskBytes)
        return false;
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid0)
        return false;

    if (level == RaidLevel::Raid1) {
        const unsigned m = _layout.mirrorDisk(dead);
        if (isFailed(m) || latentOverlaps(m, disk_off, out.size()))
            return false;
        std::memcpy(out.data(), disk(m) + disk_off, out.size());
        return true;
    }

    // Levels 3/5: parity only covers whole stripes.
    if (disk_off + out.size() > _layout.numStripes() * _layout.unitBytes())
        return false;
    // Vet every survivor before touching out: a second failure or a
    // survivor latent range means the fold would produce garbage.
    const std::uint8_t *srcs[kMaxFoldSources];
    std::size_t k = 0;
    for (unsigned d = 0; d < numDisks(); ++d) {
        if (d == dead)
            continue;
        if (isFailed(d) || latentOverlaps(d, disk_off, out.size()))
            return false;
        srcs[k++] = disk(d) + disk_off;
    }
    xorFold(out.data(), srcs, k, out.size());
    return true;
}

void
RaidArray::patchDiskRange(unsigned d, std::uint64_t off,
                          std::span<const std::uint8_t> data)
{
    if (d >= numDisks())
        sim::panic("patchDiskRange: bad disk %u", d);
    if (off + data.size() > diskBytes)
        sim::panic("patchDiskRange: range [%llu, +%zu) beyond disk",
                   (unsigned long long)off, data.size());
    if (isFailed(d))
        sim::panic("patchDiskRange: disk %u is failed", d);
    if (data.empty())
        return;
    std::memcpy(disk(d) + off, data.data(), data.size());
}

bool
RaidArray::healRedundancyRange(unsigned d, std::uint64_t off,
                               std::uint64_t len)
{
    if (len == 0 || _layout.level() == RaidLevel::Raid0)
        return true;
    if (d >= numDisks() || failedCount() > 0)
        return false;
    const std::uint64_t end = std::min(off + len, diskBytes);
    if (off >= end)
        return true;

    if (_layout.level() == RaidLevel::Raid1) {
        // The primary copy holds the verified data; re-copy it onto
        // the mirror half regardless of which side was scanned.
        const unsigned p = std::min(d, _layout.mirrorDisk(d));
        const unsigned m = _layout.mirrorDisk(p);
        // Heal known-garbled primary bytes from the mirror first, or
        // the copy below would launder them into the good side.
        reconstructLatent(p, off, end - off);
        std::memcpy(disk(m) + off, disk(p) + off,
                    static_cast<std::size_t>(end - off));
        return true;
    }

    // Levels 3/5: re-derive parity for every stripe in the range where
    // @p d holds the parity unit (data units were verified upstream).
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t covered = _layout.numStripes() * unit;
    for (std::uint64_t s = off / unit;
         s * unit < std::min(end, covered); ++s) {
        if (_layout.parityDisk(s) == d) {
            // Restores the bytes under data-unit latents before the
            // recompute folds raw bytes.
            prepareStripeForUpdate(s);
            recomputeParity(s);
        }
    }
    return true;
}

void
RaidArray::recoverRange(unsigned d, std::uint64_t off,
                        std::span<std::uint8_t> out) const
{
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid1) {
        const unsigned m = _layout.mirrorDisk(d);
        if (isFailed(m) || latentOverlaps(m, off, out.size()))
            sim::fatal("RaidArray: latent range on disk %u "
                       "unrecoverable (mirror %u unusable)", d, m);
        std::memcpy(out.data(), disk(m) + off, out.size());
    } else if (level == RaidLevel::Raid0) {
        sim::fatal("RaidArray: RAID-0 cannot recover latent range "
                   "on disk %u", d);
    } else {
        reconstructRange(d, off, out);
    }
}

void
RaidArray::readDiskRange(unsigned d, std::uint64_t off,
                         std::span<std::uint8_t> out) const
{
    std::uint64_t pos = off;
    auto copyClean = [&](std::uint64_t until) {
        std::memcpy(out.data() + (pos - off), disk(d) + pos,
                    static_cast<std::size_t>(until - pos));
    };
    state->forEachLatent(d, off, out.size(), [&](std::uint64_t s,
                                                 std::uint64_t n) {
        copyClean(s);
        recoverRange(d, s, {out.data() + (s - off),
                            static_cast<std::size_t>(n)});
        pos = s + n;
    });
    copyClean(off + out.size());
}

void
RaidArray::read(std::uint64_t off, std::span<std::uint8_t> out) const
{
    if (out.empty())
        return;
    const RaidLevel level = _layout.level();

    if (level == RaidLevel::Raid3) {
        // Unit-at-a-time (unit == sector): each row's data is
        // logically contiguous, so this is straight memcpy except
        // where a failed disk or latent range forces reconstruction.
        forEachDataUnit(
            _layout, off, out.size(),
            [&](std::uint64_t, unsigned d, std::uint64_t doff,
                std::uint64_t lpos, std::uint64_t n) {
                std::span<std::uint8_t> dst{
                    out.data() + (lpos - off),
                    static_cast<std::size_t>(n)};
                if (isFailed(d))
                    reconstructRange(d, doff, dst);
                else
                    readDiskRange(d, doff, dst);
            });
        return;
    }

    for (const DiskExtent &e :
         _layout.mapRange(off, out.size(), false)) {
        std::uint8_t *dst = out.data() + (e.logicalOffset - off);
        unsigned src_disk = e.disk;
        if (isFailed(src_disk)) {
            if (level == RaidLevel::Raid1) {
                src_disk = _layout.mirrorDisk(e.disk);
                if (isFailed(src_disk))
                    sim::fatal("RaidArray: mirror pair %u/%u both failed",
                               e.disk, src_disk);
            } else if (level == RaidLevel::Raid5) {
                reconstructRange(e.disk, e.diskOffset,
                                 {dst, static_cast<std::size_t>(e.bytes)});
                continue;
            } else {
                sim::fatal("RaidArray: RAID-0 cannot survive disk %u",
                           e.disk);
            }
        }
        readDiskRange(src_disk, e.diskOffset,
                      {dst, static_cast<std::size_t>(e.bytes)});
    }
}

std::span<const std::uint8_t>
RaidArray::liveSpan(std::uint64_t off, std::uint64_t len) const
{
    if (len == 0 || off >= capacity() || len > capacity() - off)
        return {};
    unsigned d = 0;
    std::uint64_t doff = 0;
    _layout.mapByte(off, d, doff);
    const std::uint64_t unit = _layout.unitBytes();
    if (doff % unit + len > unit || doff + len > diskBytes ||
        isFailed(d) || latentOverlaps(d, doff, len))
        return {};
    return {disk(d) + doff, static_cast<std::size_t>(len)};
}

void
RaidArray::injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= numDisks())
        sim::panic("injectLatent: bad disk %u", d);
    if (off + bytes > diskBytes)
        sim::panic("injectLatent: range [%llu, +%llu) beyond disk",
                   (unsigned long long)off, (unsigned long long)bytes);
    state->addLatent(d, off, bytes);
}

std::uint64_t
RaidArray::scrub()
{
    std::uint64_t repaired = 0;
    for (unsigned d = 0; d < numDisks(); ++d)
        repaired += state->repairLatent(d, 0, diskBytes).ranges;
    return repaired;
}

void
RaidArray::wipeDisk(unsigned d)
{
    std::memset(disk(d), 0xde, static_cast<std::size_t>(diskBytes));
}

void
RaidArray::garbleRange(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    // Position-based pattern: idempotent, so re-garbling an overlapping
    // range is harmless.  The redundancy still encodes the original
    // bytes; only this copy is damaged.  A timed disk may be larger
    // than the twin's; the part beyond it has no bytes here.
    const std::uint64_t end = std::min(off + bytes, diskBytes);
    for (std::uint64_t p = off; p < end; ++p)
        disk(d)[p] = static_cast<std::uint8_t>(0xb5 ^ p ^ (p >> 8));
}

void
RaidArray::reconstructInPlace(unsigned d, std::uint64_t off,
                              std::uint64_t bytes)
{
    // A timed disk may be larger than the twin's; the part beyond it
    // has no bytes here.
    if (off >= diskBytes)
        return;
    bytes = std::min(bytes, diskBytes - off);
    recoverRange(d, off, {disk(d) + off, static_cast<std::size_t>(bytes)});
}

void
RaidArray::reconstructLatent(unsigned d, std::uint64_t off,
                             std::uint64_t bytes)
{
    state->forEachLatent(d, off, bytes,
                         [&](std::uint64_t s, std::uint64_t n) {
                             reconstructInPlace(d, s, n);
                         });
}

void
RaidArray::rebuildContents(unsigned d)
{
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid1) {
        const unsigned partner = _layout.mirrorDisk(d);
        if (isFailed(partner))
            sim::fatal("rebuildDisk: mirror partner %u also failed",
                       partner);
        std::memcpy(disk(d), disk(partner),
                    static_cast<std::size_t>(diskBytes));
        return;
    }
    if (level == RaidLevel::Raid0)
        sim::fatal("rebuildDisk: RAID-0 has no redundancy");

    // Levels 3/5: the whole disk is the XOR of the survivors over the
    // parity-covered region.
    const std::uint64_t covered =
        _layout.numStripes() * _layout.unitBytes();
    std::memset(disk(d), 0, static_cast<std::size_t>(diskBytes));
    reconstructRange(d, 0, {disk(d),
                            static_cast<std::size_t>(covered)});
}

bool
RaidArray::redundancyConsistent() const
{
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid0)
        return true;
    if (failedCount() > 0)
        return false;

    if (level == RaidLevel::Raid1) {
        const unsigned half = _layout.numDisks() / 2;
        for (unsigned d = 0; d < half; ++d) {
            if (std::memcmp(disk(d), disk(_layout.mirrorDisk(d)),
                            static_cast<std::size_t>(diskBytes)) != 0)
                return false;
        }
        return true;
    }

    const std::uint64_t covered =
        _layout.numStripes() * _layout.unitBytes();
    std::vector<std::uint8_t> acc(
        static_cast<std::size_t>(std::min<std::uint64_t>(covered,
                                                         1u << 20)));
    // Check in chunks to bound memory.
    const std::uint8_t *srcs[kMaxFoldSources];
    for (std::uint64_t base = 0; base < covered; base += acc.size()) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(acc.size(), covered - base));
        for (unsigned d = 0; d < numDisks(); ++d)
            srcs[d] = disk(d) + base;
        xorFold(acc.data(), srcs, numDisks(), n);
        if (!allZero({acc.data(), n}))
            return false;
    }
    return true;
}

void
RaidArray::registerStats(sim::StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.add(prefix + ".parity.recomputes", _parityRecomputes);
    reg.add(prefix + ".parity.fullStripeWrites", _parityFullStripes);
}

} // namespace raid2::raid
