#include "raid/raid_array.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "raid/parity.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::raid {

RaidArray::RaidArray(const LayoutConfig &cfg, std::uint64_t disk_bytes)
    : _layout(cfg, disk_bytes), diskBytes(disk_bytes),
      // calloc, not a zero-filled vector: a large block comes straight
      // from the kernel's zero pages, so the array costs memory only
      // for the disk regions actually written.
      store(static_cast<std::uint8_t *>(
          std::calloc(cfg.numDisks, static_cast<std::size_t>(disk_bytes)))),
      failed(cfg.numDisks, false), latents(cfg.numDisks)
{
    if (cfg.numDisks > kMaxFoldSources)
        sim::fatal("RaidArray: %u disks exceeds the %zu-way parity "
                   "fold limit",
                   cfg.numDisks, kMaxFoldSources);
    if (!store)
        sim::fatal("RaidArray: cannot allocate %u x %llu bytes",
                   cfg.numDisks, (unsigned long long)disk_bytes);
}

/** Mirror partner of @p d, valid for either half of the array. */
static unsigned
mirrorPartnerOf(const RaidLayout &layout, unsigned d)
{
    const unsigned half = layout.numDisks() / 2;
    return d < half ? layout.mirrorDisk(d) : d - half;
}

unsigned
RaidArray::failedCount() const
{
    unsigned n = 0;
    for (bool f : failed)
        n += f ? 1 : 0;
    return n;
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
            eraseLatentRange(e.disk, e.diskOffset, e.bytes);
            if (level == RaidLevel::Raid1) {
                const unsigned m = _layout.mirrorDisk(e.disk);
                std::memcpy(disk(m) + e.diskOffset, src,
                            static_cast<std::size_t>(e.bytes));
                eraseLatentRange(m, e.diskOffset, e.bytes);
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
                eraseLatentRange(d, base, unit);
            }
            const unsigned pd = _layout.parityDisk(s);
            xorFold(disk(pd) + base, srcs, K,
                    static_cast<std::size_t>(unit));
            eraseLatentRange(pd, base, unit);
            _parityRecomputes.inc();
            _parityFullStripes.inc();
        } else {
            // Ragged edge: bring the stripe to a known-good state,
            // overlay the new bytes, recompute parity once.
            prepareStripeForUpdate(s);
            forEachDataUnit(
                _layout, pos, take,
                [&](std::uint64_t, unsigned d, std::uint64_t doff,
                    std::uint64_t lpos, std::uint64_t n) {
                    std::memcpy(disk(d) + doff,
                                data.data() + (lpos - off),
                                static_cast<std::size_t>(n));
                });
            recomputeParity(s);
        }
        pos += take;
    }
}

void
RaidArray::prepareStripeForUpdate(std::uint64_t s)
{
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t base = s * unit;
    // Parity is rewritten wholesale by recomputeParity, which heals
    // any latent defect there without reconstruction.
    eraseLatentRange(_layout.parityDisk(s), base, unit);
    for (unsigned k = 0; k < _layout.dataUnitsPerStripe(); ++k) {
        const unsigned d = _layout.dataDisk(s, k);
        if (failed[d]) {
            // Reconstruct the dead unit's pre-write content into its
            // buffer so the parity recompute re-encodes the bytes the
            // write does not touch.  Without this, a degraded
            // partial-stripe write would fold the destroyed buffer
            // into parity and lose the untouched region of the unit.
            reconstructRange(d, base,
                             {disk(d) + base,
                              static_cast<std::size_t>(unit)});
        } else {
            repairLatentIn(d, base, unit);
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
        if (failed[d])
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
        const unsigned m = mirrorPartnerOf(_layout, dead);
        if (failed[m] || latentOverlaps(m, disk_off, out.size()))
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
        if (failed[d] || latentOverlaps(d, disk_off, out.size()))
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
    if (failed[d])
        sim::panic("patchDiskRange: disk %u is failed", d);
    if (data.empty())
        return;
    std::memcpy(disk(d) + off, data.data(), data.size());
    eraseLatentRange(d, off, data.size());
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
        const unsigned half = _layout.numDisks() / 2;
        const unsigned p = d < half ? d : d - half;
        const unsigned m = _layout.mirrorDisk(p);
        // Heal known-garbled primary bytes from the mirror first, or
        // the copy below would launder them into the good side.
        repairLatentIn(p, off, end - off);
        std::memcpy(disk(m) + off, disk(p) + off,
                    static_cast<std::size_t>(end - off));
        eraseLatentRange(m, off, end - off);
        return true;
    }

    // Levels 3/5: re-derive parity for every stripe in the range where
    // @p d holds the parity unit (data units were verified upstream).
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t covered = _layout.numStripes() * unit;
    for (std::uint64_t s = off / unit;
         s * unit < std::min(end, covered); ++s) {
        if (_layout.parityDisk(s) == d) {
            // Repairs data-unit latents (and drops the parity-unit
            // latent record) before the recompute folds raw bytes.
            prepareStripeForUpdate(s);
            recomputeParity(s);
        }
    }
    return true;
}

void
RaidArray::readDiskRange(unsigned d, std::uint64_t off,
                         std::span<std::uint8_t> out) const
{
    const auto &lm = latents[d];
    const std::uint64_t end = off + out.size();
    std::uint64_t pos = off;
    while (pos < end) {
        // Does a latent interval cover pos?
        std::uint64_t lat_until = 0;
        auto it = lm.upper_bound(pos);
        if (it != lm.begin()) {
            const auto prev = std::prev(it);
            if (prev->first + prev->second > pos)
                lat_until = std::min(end, prev->first + prev->second);
        }
        if (lat_until > pos) {
            const std::size_t n =
                static_cast<std::size_t>(lat_until - pos);
            std::span<std::uint8_t> sub{out.data() + (pos - off), n};
            const RaidLevel level = _layout.level();
            if (level == RaidLevel::Raid1) {
                const unsigned m = mirrorPartnerOf(_layout, d);
                if (failed[m] || latentOverlaps(m, pos, n))
                    sim::fatal("RaidArray: latent range on disk %u "
                               "unrecoverable (mirror %u unusable)", d, m);
                std::memcpy(sub.data(), disk(m) + pos, n);
            } else if (level == RaidLevel::Raid0) {
                sim::fatal("RaidArray: RAID-0 cannot recover latent range "
                           "on disk %u", d);
            } else {
                reconstructRange(d, pos, sub);
            }
            _latentReconstructedBytes += n;
            pos = lat_until;
            continue;
        }
        // Clean up to the next latent interval (or the end).
        std::uint64_t clean_until = end;
        if (it != lm.end() && it->first < end)
            clean_until = it->first;
        std::memcpy(out.data() + (pos - off), disk(d) + pos,
                    static_cast<std::size_t>(clean_until - pos));
        pos = clean_until;
    }
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
                if (failed[d])
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
        if (failed[src_disk]) {
            if (level == RaidLevel::Raid1) {
                src_disk = _layout.mirrorDisk(e.disk);
                if (failed[src_disk])
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

void
RaidArray::failDisk(unsigned d)
{
    if (d >= numDisks())
        sim::panic("failDisk: bad disk %u", d);
    failed[d] = true;
    std::memset(disk(d), 0xde, static_cast<std::size_t>(diskBytes));
    // The whole disk is gone; its latent defects go with it.
    latents[d].clear();
}

void
RaidArray::injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= numDisks())
        sim::panic("injectLatent: bad disk %u", d);
    if (off + bytes > diskBytes)
        sim::panic("injectLatent: range [%llu, +%llu) beyond disk",
                   (unsigned long long)off, (unsigned long long)bytes);
    if (bytes == 0 || failed[d])
        return;

    // Garble in place with a position-based pattern (idempotent, so
    // re-injecting an overlapping range is harmless).  The redundancy
    // still encodes the original bytes; only this copy is damaged.
    for (std::uint64_t i = 0; i < bytes; ++i) {
        const std::uint64_t p = off + i;
        disk(d)[p] = static_cast<std::uint8_t>(0xb5 ^ p ^ (p >> 8));
    }

    // Merge into the interval map.
    std::uint64_t s = off, e = off + bytes;
    auto &lm = latents[d];
    auto it = lm.upper_bound(s);
    if (it != lm.begin())
        --it;
    while (it != lm.end() && it->first <= e) {
        const std::uint64_t iend = it->first + it->second;
        if (iend < s) {
            ++it;
            continue;
        }
        s = std::min(s, it->first);
        e = std::max(e, iend);
        it = lm.erase(it);
    }
    lm.emplace(s, e - s);
    ++_latentsInjected;
}

bool
RaidArray::latentOverlaps(unsigned d, std::uint64_t off,
                          std::uint64_t bytes) const
{
    const auto &lm = latents.at(d);
    if (lm.empty() || bytes == 0)
        return false;
    auto it = lm.upper_bound(off);
    if (it != lm.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + prev->second > off)
            return true;
    }
    return it != lm.end() && it->first < off + bytes;
}

bool
RaidArray::latentCollision(unsigned d, std::uint64_t off,
                           std::uint64_t bytes) const
{
    for (unsigned o = 0; o < numDisks(); ++o) {
        if (o != d && latentOverlaps(o, off, bytes))
            return true;
    }
    return false;
}

void
RaidArray::repairLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= numDisks())
        sim::panic("repairLatent: bad disk %u", d);
    if (bytes == 0)
        return;
    if (failed[d])
        sim::panic("repairLatent: disk %u is failed", d);

    std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes));
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid1) {
        const unsigned m = mirrorPartnerOf(_layout, d);
        if (failed[m] || latentOverlaps(m, off, bytes))
            sim::fatal("repairLatent: latent range on disk %u "
                       "unrecoverable (mirror %u unusable)", d, m);
        std::memcpy(buf.data(), disk(m) + off, buf.size());
    } else if (level == RaidLevel::Raid0) {
        sim::fatal("repairLatent: RAID-0 has no redundancy");
    } else {
        reconstructRange(d, off, {buf.data(), buf.size()});
    }
    std::memcpy(disk(d) + off, buf.data(), buf.size());
    eraseLatentRange(d, off, bytes);
    ++_latentRepairs;
}

void
RaidArray::repairLatentIn(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    const std::uint64_t end = off + bytes;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> todo;
    for (const auto &[s, len] : latents[d]) {
        const std::uint64_t e = s + len;
        if (e <= off || s >= end)
            continue;
        const std::uint64_t cs = std::max(s, off);
        todo.emplace_back(cs, std::min(e, end) - cs);
    }
    for (const auto &[s, len] : todo)
        repairLatent(d, s, len);
}

void
RaidArray::eraseLatentRange(unsigned d, std::uint64_t off,
                            std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    auto &lm = latents[d];
    const std::uint64_t end = off + bytes;
    auto it = lm.upper_bound(off);
    if (it != lm.begin())
        --it;
    while (it != lm.end() && it->first < end) {
        const std::uint64_t istart = it->first;
        const std::uint64_t iend = it->first + it->second;
        if (iend <= off) {
            ++it;
            continue;
        }
        it = lm.erase(it);
        if (istart < off)
            lm.emplace(istart, off - istart);
        if (iend > end)
            it = lm.emplace(end, iend - end).first;
    }
}

std::uint64_t
RaidArray::scrub()
{
    std::uint64_t repaired = 0;
    for (unsigned d = 0; d < numDisks(); ++d) {
        if (failed[d])
            continue;
        const auto todo = latents[d]; // copy: repairLatent mutates
        for (const auto &[s, len] : todo) {
            repairLatent(d, s, len);
            ++repaired;
        }
    }
    return repaired;
}

std::uint64_t
RaidArray::latentCount() const
{
    std::uint64_t n = 0;
    for (const auto &lm : latents)
        n += lm.size();
    return n;
}

std::uint64_t
RaidArray::latentBytes() const
{
    std::uint64_t n = 0;
    for (const auto &lm : latents)
        for (const auto &[s, len] : lm)
            n += len;
    return n;
}

void
RaidArray::rebuildDisk(unsigned d)
{
    if (d >= numDisks())
        sim::panic("rebuildDisk: bad disk %u", d);
    if (!failed[d])
        return;
    failed[d] = false;

    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid1) {
        const unsigned half = _layout.numDisks() / 2;
        const unsigned partner =
            d < half ? _layout.mirrorDisk(d) : d - half;
        if (failed[partner])
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
