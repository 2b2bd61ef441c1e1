#include "integrity/verifying_device.hh"

#include <cstring>

#include "sim/stats_registry.hh"

namespace raid2::integrity {

VerifyingDevice::VerifyingDevice(fs::BlockDevice &inner_,
                                 raid::RaidArray *array_,
                                 const Config &cfg_)
    : inner(inner_), array(array_), cfg(cfg_),
      map(inner_.numBlocks(), inner_.blockSize()),
      scratch(inner_.blockSize())
{
    if (array && array->capacity() < inner.capacityBytes())
        sim::panic("VerifyingDevice: array smaller than inner device");
}

VerifyingDevice::VerifyingDevice(fs::BlockDevice &inner_,
                                 raid::RaidArray *array_)
    : VerifyingDevice(inner_, array_, Config{})
{
}

std::uint32_t
VerifyingDevice::blockSize() const
{
    return inner.blockSize();
}

std::uint64_t
VerifyingDevice::numBlocks() const
{
    return inner.numBlocks();
}

void
VerifyingDevice::readBlock(std::uint64_t bno, std::span<std::uint8_t> out)
{
    readRange(bno, 1, out);
}

void
VerifyingDevice::writeBlock(std::uint64_t bno,
                            std::span<const std::uint8_t> data)
{
    writeRange(bno, 1, data);
}

void
VerifyingDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                            std::span<const std::uint8_t> data)
{
    if (count == 0)
        return;
    checkExtent(bno, count, data.size());
    noteWrite(count);
    inner.writeRange(bno, count, data);

    // Checksums come from the *source* buffer — the writer's intent —
    // so a corrupted landing is detectable later.  Without
    // verification nothing ever consults the map: record nothing.
    const std::uint32_t bs = blockSize();
    if (cfg.verifyReads) {
        for (std::uint64_t i = 0; i < count; ++i) {
            map.record(bno + i,
                       data.subspan(static_cast<std::size_t>(i) * bs,
                                    bs));
            poisoned.erase(bno + i); // fresh data clears any poison
        }
    }
    if (_armedWriteFlips > 0)
        applyArmedWriteFlip(bno, count);
}

void
VerifyingDevice::readRange(std::uint64_t bno, std::uint64_t count,
                           std::span<std::uint8_t> out)
{
    verifiedReadRange(bno, count, out);
}

bool
VerifyingDevice::verifiedReadRange(std::uint64_t bno, std::uint64_t count,
                                   std::span<std::uint8_t> out)
{
    if (count == 0)
        return true;
    checkExtent(bno, count, out.size());
    noteRead(count);
    inner.readRange(bno, count, out);
    if (_armedReadFlips > 0)
        applyArmedReadFlips(out);
    if (!cfg.verifyReads)
        return true;

    const std::uint32_t bs = blockSize();
    bool ok = true;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::span<std::uint8_t> blk =
            out.subspan(static_cast<std::size_t>(i) * bs, bs);
        if (!verifyOneBlock(bno + i, blk)) {
            ++_unrepairableReads;
            ok = false;
        }
    }
    return ok;
}

void
VerifyingDevice::flush()
{
    inner.flush();
}

bool
VerifyingDevice::verifyOneBlock(std::uint64_t bno,
                                std::span<std::uint8_t> blk)
{
    ++_verifiedBlocks;
    if (map.matches(bno, blk)) {
        poisoned.erase(bno);
        return true;
    }
    ++_detected;
    if (repairBlock(bno, blk)) {
        ++_repairs;
        poisoned.erase(bno);
        return true;
    }
    poisoned.insert(bno);
    return false;
}

template <typename Fn>
void
VerifyingDevice::forEachDiskPiece(std::uint64_t byte_off,
                                  std::uint64_t len, Fn &&fn) const
{
    const raid::RaidLayout &layout = array->layout();
    const std::uint64_t unit = layout.unitBytes();
    std::uint64_t pos = byte_off;
    const std::uint64_t end = byte_off + len;
    while (pos < end) {
        unsigned d = 0;
        std::uint64_t doff = 0;
        layout.mapByte(pos, d, doff);
        const std::uint64_t n =
            std::min(end - pos, unit - (doff % unit));
        fn(d, doff, pos - byte_off, n);
        pos += n;
    }
}

bool
VerifyingDevice::repairBlock(std::uint64_t bno,
                             std::span<std::uint8_t> blk)
{
    const std::uint32_t bs = blockSize();

    // Step 1: re-read.  Transfer corruption damaged the bytes in
    // flight, not the media copy — a second read comes back clean.
    inner.readRange(bno, 1, {scratch.data(), bs});
    if (map.matches(bno, {scratch.data(), bs})) {
        std::memcpy(blk.data(), scratch.data(), bs);
        ++_transferRepairs;
        return true;
    }

    // Step 2: the media copy itself is wrong — rebuild from
    // redundancy under the single-corrupt-disk model.  A block that
    // spans several member disks (RAID-3: the stripe unit is smaller
    // than a file-system block) cannot simply reconstruct *every*
    // piece: rebuilding a clean sibling folds the corrupt disk's
    // bytes right back in.  Instead, suspect each member disk in
    // turn: start from the media image, reconstruct only that disk's
    // pieces from the others, and keep the first candidate the
    // checksum vouches for.
    if (!array)
        return false;
    struct Piece
    {
        unsigned d;
        std::uint64_t doff;
        std::uint64_t rel;
        std::uint64_t n;
    };
    std::vector<Piece> pieces;
    forEachDiskPiece(std::uint64_t(bno) * bs, bs,
                     [&](unsigned d, std::uint64_t doff,
                         std::uint64_t rel, std::uint64_t n) {
                         pieces.push_back({d, doff, rel, n});
                     });
    std::vector<std::uint8_t> cand(bs);
    std::vector<bool> tried(array->numDisks(), false);
    unsigned suspect = 0;
    bool repaired = false;
    for (const Piece &lead : pieces) {
        if (tried[lead.d])
            continue; // each disk suspected once
        tried[lead.d] = true;
        std::memcpy(cand.data(), scratch.data(), bs);
        bool reconstructed = true;
        for (const Piece &p : pieces) {
            if (p.d != lead.d)
                continue;
            if (!array->tryReconstructRange(
                    p.d, p.doff,
                    {cand.data() + p.rel,
                     static_cast<std::size_t>(p.n)}))
                reconstructed = false;
        }
        if (reconstructed && map.matches(bno, {cand.data(), bs})) {
            suspect = lead.d;
            repaired = true;
            break;
        }
    }
    if (!repaired)
        return false;

    // Commit: patch the suspect disk's buffer directly.  Parity is
    // NOT recomputed — it already encodes the bytes the candidate was
    // reconstructed from; folding the corrupt copy into a parity
    // update is exactly the laundering this layer exists to prevent.
    for (const Piece &p : pieces)
        if (p.d == suspect)
            array->patchDiskRange(p.d, p.doff,
                                  {cand.data() + p.rel,
                                   static_cast<std::size_t>(p.n)});
    inner.readRange(bno, 1, {scratch.data(), bs});
    if (!map.matches(bno, {scratch.data(), bs}))
        return false;
    std::memcpy(blk.data(), scratch.data(), bs);
    ++_mediaRepairs;
    return true;
}

VerifyingDevice::ScrubSummary
VerifyingDevice::scrubVerify(std::uint64_t bno, std::uint64_t count)
{
    ScrubSummary s;
    const std::uint32_t bs = blockSize();
    std::vector<std::uint8_t> blk(bs);
    for (std::uint64_t i = 0; i < count && bno + i < numBlocks(); ++i) {
        const std::uint64_t b = bno + i;
        ++s.scanned;
        inner.readRange(b, 1, {blk.data(), bs});
        ++_verifiedBlocks;
        if (map.matches(b, {blk.data(), bs})) {
            poisoned.erase(b);
            continue;
        }
        ++_detected;
        if (repairBlock(b, {blk.data(), bs})) {
            ++_repairs;
            ++_scrubRepairs;
            ++s.repaired;
            poisoned.erase(b);
        } else {
            poisoned.insert(b);
            ++s.unrepairable;
        }
    }
    return s;
}

std::uint64_t
VerifyingDevice::nextFlipPos(std::uint64_t space)
{
    _flipSalt = _flipSalt * 6364136223846793005ull +
                1442695040888963407ull;
    return space ? _flipSalt % space : 0;
}

void
VerifyingDevice::applyArmedWriteFlip(std::uint64_t bno,
                                     std::uint64_t count)
{
    // Corrupt one landed disk copy, post-parity: the redundancy still
    // encodes the writer's bytes, so the flip is reconstructible.
    if (!array) {
        --_armedWriteFlips;
        return;
    }
    const std::uint64_t span_bytes = count * std::uint64_t(blockSize());
    const std::uint64_t abs =
        bno * std::uint64_t(blockSize()) + nextFlipPos(span_bytes);
    unsigned d = 0;
    std::uint64_t doff = 0;
    array->layout().mapByte(abs, d, doff);
    if (!array->isFailed(d)) {
        array->diskData(d)[doff] ^= 0x4a;
        ++_writeFlipsApplied;
    }
    --_armedWriteFlips;
}

void
VerifyingDevice::applyArmedReadFlips(std::span<std::uint8_t> out)
{
    while (_armedReadFlips > 0) {
        out[static_cast<std::size_t>(nextFlipPos(out.size()))] ^= 0x10;
        ++_readFlipsApplied;
        --_armedReadFlips;
    }
}

void
VerifyingDevice::registerStats(sim::StatsRegistry &reg,
                               const std::string &prefix) const
{
    auto gauge = [&reg](const std::string &name,
                        const std::uint64_t *v) {
        reg.addGauge(name,
                     [v] { return static_cast<double>(*v); });
    };
    gauge(prefix + ".verified_blocks", &_verifiedBlocks);
    gauge(prefix + ".detected", &_detected);
    gauge(prefix + ".repairs", &_repairs);
    gauge(prefix + ".repairs_media", &_mediaRepairs);
    gauge(prefix + ".repairs_transfer", &_transferRepairs);
    gauge(prefix + ".repairs_scrub", &_scrubRepairs);
    gauge(prefix + ".unrepairable_reads", &_unrepairableReads);
    gauge(prefix + ".transfer_read_flips", &_readFlipsApplied);
    gauge(prefix + ".transfer_write_flips", &_writeFlipsApplied);
    reg.addGauge(prefix + ".poisoned_blocks", [this] {
        return static_cast<double>(poisoned.size());
    });
    reg.addGauge(prefix + ".checksums_known", [this] {
        return static_cast<double>(map.knownCount());
    });
}

} // namespace raid2::integrity
