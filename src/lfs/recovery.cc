/**
 * @file
 * Mount-time crash recovery.
 *
 * Load the newest valid checkpoint, then roll the log forward: follow
 * the segment chain the summaries record, verifying sequence numbers,
 * the summary checksum and each payload block against its summary
 * entry's checksum, and re-apply the imap chunk updates each
 * segment carries.  Everything synced before the crash becomes
 * reachable again; a torn head segment fails its checksum and ends the
 * roll-forward, exactly as in Sprite LFS.  §3.1: "For a 1 gigabyte
 * file system, it takes a few seconds to perform an LFS file system
 * check" — the work here is proportional to the log written since the
 * last checkpoint, not to the file system size.
 */

#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

void
Lfs::mount()
{
    CheckpointHeader h0{}, h1{};
    std::vector<BlockAddr> a0, a1;
    std::vector<Usage> u0, u1;
    std::vector<SnapshotRecord> s0, s1;
    const bool v0 = readCheckpoint(sb.cp0Block, h0, a0, u0, s0);
    const bool v1 = readCheckpoint(sb.cp1Block, h1, a1, u1, s1);
    if (!v0 && !v1)
        throw LfsError(Errno::Invalid, "no valid checkpoint region");

    const bool use1 = v1 && (!v0 || h1.seqno > h0.seqno);
    const CheckpointHeader &hdr = use1 ? h1 : h0;
    imapChunkAddr = use1 ? a1 : a0;
    usage = use1 ? u1 : u0;
    snaps = use1 ? std::move(s1) : std::move(s0);
    cpSeqno = hdr.seqno;
    root = hdr.rootIno;
    nextIno = hdr.nextIno == nullIno ? 1 : hdr.nextIno;

    // Re-arm the snapshot pins before roll-forward touches the log so
    // the recovered head can never land on snapshot data.
    for (const SnapshotRecord &r : snaps) {
        pinSnapshot(r);
        if (r.id >= nextSnapId)
            nextSnapId = r.id + 1;
    }

    loadImapChunks();
    rollForward(hdr.logHeadSegment, hdr.nextSegSeq);

    if (root != nullIno && !imap[root].allocated())
        throw LfsError(Errno::Invalid, "root inode missing after recovery");

    // Advance past the highest allocated inode to cut down on reuse.
    for (InodeNum i = 1; i < sb.maxInodes; ++i) {
        if (imap[i].allocated() && i >= nextIno)
            nextIno = i + 1 >= sb.maxInodes ? 1 : i + 1;
    }
}

void
Lfs::rollForward(std::uint64_t start_seg, std::uint64_t start_seq)
{
    std::uint64_t seg = start_seg;
    std::uint64_t expect_seq = start_seq;
    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(
        std::size_t(summary_blocks) * sb.blockSize);
    std::vector<std::uint8_t> payload;
    bool any_applied = false;

    for (std::uint64_t hops = 0; hops <= sb.numSegments; ++hops) {
        if (seg >= sb.numSegments)
            break;
        dev.readBlocks(sb.segmentStartBlock(seg), summary_blocks,
                       {summary.data(), summary.size()});
        SummaryHeader hdr;
        std::memcpy(&hdr, summary.data(), sizeof(hdr));
        if (hdr.magic != summaryMagic || hdr.segSeq != expect_seq ||
            hdr.count == 0 ||
            hdr.count > sb.payloadBlocksPerSegment()) {
            break;
        }
        // Validate the summary checksum (computed with field zeroed).
        {
            std::vector<std::uint8_t> tmp = summary;
            std::uint32_t zero = 0;
            std::memcpy(tmp.data() + offsetof(SummaryHeader, checksum),
                        &zero, sizeof(zero));
            if (hdr.checksum != checksum32({tmp.data(), tmp.size()}))
                break;
        }
        // Validate every payload block against its summary entry (the
        // summary checksum vouches for the entries): a torn segment
        // write ends recovery.
        const auto *entries = reinterpret_cast<const SummaryEntry *>(
            summary.data() + sizeof(SummaryHeader));
        payload.resize(std::size_t(hdr.count) * sb.blockSize);
        dev.readBlocks(sb.segmentStartBlock(seg) + summary_blocks,
                       hdr.count, {payload.data(), payload.size()});
        bool intact = true;
        for (std::uint32_t i = 0; i < hdr.count && intact; ++i) {
            intact = entries[i].csum ==
                     checksum({payload.data() +
                                   std::size_t(i) * sb.blockSize,
                               sb.blockSize});
        }
        if (!intact)
            break;

        // Apply: the segment is live; its imap chunks supersede the
        // checkpoint's.
        usage[seg].liveBytes =
            static_cast<std::uint32_t>(hdr.count) * sb.blockSize;
        usage[seg].writeSeq = hdr.segSeq;
        for (std::uint32_t i = 0; i < hdr.count; ++i) {
            if (static_cast<BlockKind>(entries[i].kind) ==
                BlockKind::ImapChunk) {
                const std::uint64_t chunk = entries[i].aux;
                if (chunk < imapChunkAddr.size()) {
                    imapChunkAddr[chunk] = sb.segmentStartBlock(seg) +
                                           summary_blocks + i;
                }
            }
        }
        ++_stats.rollForwardSegments;
        any_applied = true;

        seg = hdr.nextSegment;
        ++expect_seq;
    }

    if (any_applied)
        loadImapChunks();

    // The first segment that failed validation becomes the new head —
    // unless it is pinned by a snapshot (or the successor pointer is
    // corrupt), in which case fall back to any clean unpinned segment.
    if (seg >= sb.numSegments || segPinCount[seg] > 0) {
        seg = 0;
        while (seg < sb.numSegments &&
               (usage[seg].liveBytes != 0 || segPinCount[seg] > 0)) {
            ++seg;
        }
        if (seg == sb.numSegments)
            throw LfsError(Errno::NoSpace,
                           "no clean segment for the log head");
    }
    usage[seg].liveBytes = 0;
    nextSegSeq = expect_seq + 1;
    segw->open(seg, expect_seq);
}

} // namespace raid2::lfs
