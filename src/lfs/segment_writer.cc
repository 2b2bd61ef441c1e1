#include "lfs/segment_writer.hh"

#include <cstring>

#include "sim/logging.hh"

namespace raid2::lfs {

SegmentWriter::SegmentWriter(fs::BlockDevice &dev_, const Superblock &sb_)
    : dev(dev_), sb(sb_)
{
}

void
SegmentWriter::open(std::uint64_t seg, std::uint64_t seg_seq)
{
    if (dirty())
        sim::panic("SegmentWriter: opening over a dirty segment");
    if (seg >= sb.numSegments)
        sim::panic("SegmentWriter: segment %llu out of range",
                   (unsigned long long)seg);
    if (reuseGuard && !reuseGuard(seg))
        sim::panic("SegmentWriter: opening pinned segment %llu",
                   (unsigned long long)seg);
    opened = true;
    segIdx = seg;
    seq = seg_seq;
    entries.clear();
    image.resize(std::size_t(sb.segBlocks) * sb.blockSize);
}

bool
SegmentWriter::hasSpace(unsigned blocks) const
{
    return entries.size() + blocks <= sb.payloadBlocksPerSegment();
}

BlockAddr
SegmentWriter::add(BlockKind kind, InodeNum ino, std::uint64_t aux,
                   std::span<const std::uint8_t> data)
{
    if (!opened)
        sim::panic("SegmentWriter: add with no open segment");
    if (!hasSpace())
        sim::panic("SegmentWriter: segment overflow");
    if (data.size() != sb.blockSize)
        sim::panic("SegmentWriter: bad block size %zu", data.size());

    const BlockAddr addr = payloadBase() + entries.size();
    // The checksum is filled in once, by writeOut().
    std::memcpy(slotBytes(entries.size()), data.data(), sb.blockSize);
    entries.push_back(
        SummaryEntry{static_cast<std::uint32_t>(kind), ino, aux, 0});
    return addr;
}

bool
SegmentWriter::contains(BlockAddr addr) const
{
    return opened && addr >= payloadBase() &&
           addr < payloadBase() + entries.size();
}

void
SegmentWriter::updateInPlace(BlockAddr addr,
                             std::span<const std::uint8_t> data)
{
    if (!contains(addr))
        sim::panic("SegmentWriter: update of non-buffered block");
    if (data.size() != sb.blockSize)
        sim::panic("SegmentWriter: bad block size %zu", data.size());
    std::memcpy(slotBytes(addr - payloadBase()), data.data(),
                sb.blockSize);
}

void
SegmentWriter::readBuffered(BlockAddr addr,
                            std::span<std::uint8_t> out) const
{
    if (!contains(addr))
        sim::panic("SegmentWriter: read of non-buffered block");
    if (out.size() != sb.blockSize)
        sim::panic("SegmentWriter: bad block size %zu", out.size());
    std::memcpy(out.data(),
                image.data() + slotOffset(addr - payloadBase()),
                sb.blockSize);
}

void
SegmentWriter::writeOut(std::uint64_t next_segment)
{
    if (!opened)
        sim::panic("SegmentWriter: writeOut with no open segment");
    if (entries.empty())
        sim::panic("SegmentWriter: writeOut of empty segment");

    // The summary region (it may span several blocks for large
    // segments) is rebuilt in front of the payload slots, so the image
    // is never copied: summary + payload + zero padding go to the
    // device as a single extent write covering the whole segment.  A
    // segment usually closes a few slots short (pointer-block
    // reservation), and padding keeps the device write exactly one
    // full stripe — the efficient RAID-5 case (§3.1) — whose parity
    // the array computes exactly once.  The summary's count ignores
    // the padding.
    const std::size_t summary_bytes = slotOffset(0);
    std::memset(image.data(), 0, summary_bytes);
    std::memset(slotBytes(entries.size()), 0,
                image.size() - slotOffset(entries.size()));

    // Each payload block is hashed exactly once, here.  The summary
    // checksum covers these values, so roll-forward can validate every
    // payload block against its entry.
    for (std::size_t i = 0; i < entries.size(); ++i)
        entries[i].csum = checksum({slotBytes(i), sb.blockSize});

    SummaryHeader hdr{};
    hdr.magic = summaryMagic;
    hdr.count = static_cast<std::uint32_t>(entries.size());
    hdr.segSeq = seq;
    hdr.nextSegment = next_segment;
    std::memcpy(image.data(), &hdr, sizeof(hdr));
    std::memcpy(image.data() + sizeof(hdr), entries.data(),
                entries.size() * sizeof(SummaryEntry));
    const std::uint32_t csum = checksum32({image.data(), summary_bytes});
    std::memcpy(image.data() + offsetof(SummaryHeader, checksum), &csum,
                sizeof(csum));

    dev.writeRange(sb.segmentStartBlock(segIdx), sb.segBlocks,
                   {image.data(), image.size()});

    ++written;
    payloadBytes += std::uint64_t(entries.size()) * sb.blockSize;
    entries.clear();
    opened = false;
}

} // namespace raid2::lfs
