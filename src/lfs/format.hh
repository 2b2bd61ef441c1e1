/**
 * @file
 * On-media format of the log-structured file system.
 *
 * The layout follows Sprite LFS (Rosenblum & Ousterhout, SOSP '91),
 * which RAID-II runs (§3): the device is a superblock, two checkpoint
 * regions, and a log of fixed-size segments.  Each segment starts with
 * a summary block describing every payload block (the information the
 * cleaner and roll-forward recovery need), followed by payload blocks:
 * file data, indirect blocks, inode blocks (16 packed inodes) and
 * inode-map chunks.  The checkpoint stores the inode-map chunk
 * addresses and the segment usage table; recovery rolls the log
 * forward from the last checkpoint by following the summary chain
 * (§3.1: "To recover from a file system crash, the LFS server need
 * only process the log from the position of the last checkpoint").
 */

#ifndef RAID2_LFS_FORMAT_HH
#define RAID2_LFS_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <span>

namespace raid2::lfs {

/** Absolute device block number; 0 (the superblock) doubles as null. */
using BlockAddr = std::uint64_t;
constexpr BlockAddr nullAddr = 0;

using InodeNum = std::uint32_t;
constexpr InodeNum nullIno = 0;

constexpr std::uint32_t superMagic = 0x4c465321;      // "LFS!"
constexpr std::uint32_t summaryMagic = 0x5345474d;    // "SEGM"
constexpr std::uint32_t checkpointMagic = 0x43484b50; // "CHKP"
constexpr std::uint32_t formatVersion = 3; // v3: word-at-a-time checksum

constexpr unsigned numDirect = 12;
constexpr std::uint32_t inodeBytes = 256;

/** Snapshot table limits (records live in the checkpoint body). */
constexpr std::uint32_t maxSnapshots = 8;
constexpr std::uint32_t maxSnapshotNameLen = 64;

/** File types stored in DiskInode::type. */
enum class FileType : std::uint16_t { Free = 0, Regular = 1, Directory = 2 };

/** What a segment payload block holds (summary bookkeeping). */
enum class BlockKind : std::uint32_t {
    Invalid = 0,
    Data = 1,      // file/dir contents; aux = file block number
    InodeBlock = 2, // 16 packed inodes; aux unused
    ImapChunk = 3, // inode-map chunk; aux = chunk index
    Ind1 = 4,      // single-indirect block; aux unused
    Ind2Root = 5,  // double-indirect root; aux unused
    Ind2Child = 6, // double-indirect child; aux = child index
};

/**
 * The one content checksum of the on-media format (v3): per-block
 * SummaryEntry::csum, the integrity ChecksumMap, and — truncated to
 * its low 32 bits by checksum32() — every header and body checksum.
 *
 * Four independent 64-bit lanes each fold one host-order word per
 * 32-byte stride (xor, multiply by an odd constant, xorshift), the
 * lanes are summed under distinct rotations, the <32-byte tail is
 * folded in byte by byte, and murmur3's fmix64 finalizer mixes in the
 * length.  Every step is a bijection of the running state for fixed
 * input, so any change confined to one 64-bit word (in particular any
 * single-bit flip) is always detected.  The four lanes keep four
 * multiplies in flight, so a 4 KB block costs a fraction of a
 * microsecond rather than 4 096 dependent multiplies.
 */
inline std::uint64_t
checksum(std::span<const std::uint8_t> bytes)
{
    constexpr std::uint64_t mul = 0x9e3779b97f4a7c15ull;
    const auto fold = [](std::uint64_t lane, std::uint64_t word) {
        lane = (lane ^ word) * mul;
        return lane ^ (lane >> 29);
    };
    const auto rotl = [](std::uint64_t x, int r) {
        return (x << r) | (x >> (64 - r));
    };
    const auto fmix64 = [](std::uint64_t k) {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdull;
        k ^= k >> 33;
        k *= 0xc4ceb9fe1a85ec53ull;
        return k ^ (k >> 33);
    };

    const std::uint8_t *p = bytes.data();
    std::size_t left = bytes.size();
    std::uint64_t a = 0x243f6a8885a308d3ull;
    std::uint64_t b = 0x13198a2e03707344ull;
    std::uint64_t c = 0xa4093822299f31d0ull;
    std::uint64_t d = 0x082efa98ec4e6c89ull;
    for (; left >= 32; p += 32, left -= 32) {
        std::uint64_t w[4];
        std::memcpy(w, p, sizeof(w));
        a = fold(a, w[0]);
        b = fold(b, w[1]);
        c = fold(c, w[2]);
        d = fold(d, w[3]);
    }
    std::uint64_t h = rotl(a, 1) + rotl(b, 7) + rotl(c, 12) + rotl(d, 18);
    for (; left > 0; ++p, --left)
        h = (h ^ *p) * mul;
    return fmix64(h ^ bytes.size());
}

/** checksum() for the format's 32-bit header fields: its low half. */
inline std::uint32_t
checksum32(std::span<const std::uint8_t> bytes)
{
    return static_cast<std::uint32_t>(checksum(bytes));
}

#pragma pack(push, 1)

/** Block 0 of the device. */
struct Superblock
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t blockSize;
    std::uint32_t segBlocks;     // blocks per segment incl. summary
    std::uint64_t numSegments;
    std::uint64_t firstSegBlock; // device block of segment 0
    std::uint32_t maxInodes;
    std::uint32_t cpBlocks;      // blocks per checkpoint region
    std::uint64_t cp0Block;
    std::uint64_t cp1Block;
    std::uint32_t checksum;      // over all fields above

    std::uint32_t computeChecksum() const;
    bool valid() const;

    std::uint64_t segmentStartBlock(std::uint64_t seg) const
    {
        return firstSegBlock + seg * segBlocks;
    }
    std::uint64_t segmentOfBlock(BlockAddr b) const
    {
        return (b - firstSegBlock) / segBlocks;
    }
    /** Blocks needed for the summary region (header + one entry per
     *  payload block); more than one for very large segments. */
    std::uint32_t summaryBlocksPerSegment() const;
    std::uint32_t payloadBlocksPerSegment() const
    {
        return segBlocks - summaryBlocksPerSegment();
    }
    std::uint32_t inodesPerBlock() const
    {
        return blockSize / inodeBytes;
    }
    std::uint32_t imapEntriesPerChunk() const;
    std::uint32_t numImapChunks() const
    {
        return (maxInodes + imapEntriesPerChunk() - 1) /
               imapEntriesPerChunk();
    }
};

/** One file or directory, 256 bytes on media. */
struct DiskInode
{
    InodeNum ino;
    std::uint16_t type;   // FileType
    std::uint16_t nlink;
    std::uint64_t size;
    std::uint32_t gen;    // bumped on every reuse of the inode number
    std::uint32_t mtime;  // coarse logical timestamp
    std::uint64_t direct[numDirect];
    std::uint64_t indirect;
    std::uint64_t dindirect;
    std::uint8_t pad[inodeBytes - (4 + 2 + 2 + 8 + 4 + 4 +
                                   8 * numDirect + 8 + 8)];

    FileType fileType() const { return static_cast<FileType>(type); }
};
static_assert(sizeof(DiskInode) == inodeBytes);

/** Inode-map entry: where inode @c ino currently lives. */
struct ImapEntry
{
    BlockAddr blockAddr;  // inode block; nullAddr = inode free
    std::uint32_t slot;   // index within the inode block
    std::uint32_t gen;    // generation of the current incarnation

    bool allocated() const { return blockAddr != nullAddr; }
};
static_assert(sizeof(ImapEntry) == 16);

/** Per-payload-block record in a segment summary. */
struct SummaryEntry
{
    std::uint32_t kind; // BlockKind
    InodeNum ino;
    std::uint64_t aux;
    std::uint64_t csum; // checksum() of the payload block's contents
};
static_assert(sizeof(SummaryEntry) == 24);

/** First block of every written segment. */
struct SummaryHeader
{
    std::uint32_t magic;
    std::uint32_t count;          // payload blocks present
    std::uint64_t segSeq;         // monotonic log sequence number
    std::uint64_t nextSegment;    // successor segment in the log
    std::uint32_t reserved;       // zero; pads the header to 32 bytes
    std::uint32_t checksum;       // over header + entries
};
static_assert(sizeof(SummaryHeader) == 32);

/** Segment usage table entry (lives in the checkpoint region). */
struct UsageEntry
{
    std::uint32_t liveBytes;
    std::uint32_t pad;
    std::uint64_t writeSeq; // segSeq when last written
};
static_assert(sizeof(UsageEntry) == 16);

/** Header of a checkpoint region. */
struct CheckpointHeader
{
    std::uint32_t magic;
    std::uint32_t numSnapshots;   // records after the usage table
    std::uint64_t seqno;          // higher wins at mount
    std::uint64_t logHeadSegment; // open (unwritten) segment
    std::uint64_t nextSegSeq;     // sequence the open segment will get
    InodeNum nextIno;
    InodeNum rootIno;
    std::uint32_t numImapChunks;
    std::uint32_t numSegments;
    std::uint32_t bodyChecksum;   // over imap addrs + usage + snapshots
    std::uint32_t checksum;       // over this header
};
static_assert(sizeof(CheckpointHeader) == 56);

/**
 * Fixed prefix of one snapshot-table record in the checkpoint body.
 * Followed by nameLen name bytes, numImapChunks 8-byte imap chunk
 * addresses, and a ceil(numSegments / 8)-byte pinned-segment bitmap.
 */
struct SnapshotDiskRecord
{
    std::uint32_t id;
    std::uint32_t nameLen;
    std::uint64_t createSeq;      // checkpoint seqno that captured it
    std::uint64_t nextSegSeq;     // log sequence at capture
    InodeNum root;
    InodeNum nextIno;
    std::uint32_t numImapChunks;
    std::uint32_t numSegments;
};
static_assert(sizeof(SnapshotDiskRecord) == 40);

/** Serialized size of one snapshot record with @p name_len name bytes. */
inline std::uint64_t
snapshotRecordBytes(std::uint64_t name_len, std::uint64_t num_imap_chunks,
                    std::uint64_t num_segments)
{
    return sizeof(SnapshotDiskRecord) + name_len + 8 * num_imap_chunks +
           (num_segments + 7) / 8;
}

/** Checkpoint-body bytes format() reserves for a full snapshot table. */
inline std::uint64_t
snapshotReserveBytes(std::uint64_t num_imap_chunks,
                     std::uint64_t num_segments)
{
    return maxSnapshots * snapshotRecordBytes(maxSnapshotNameLen,
                                              num_imap_chunks,
                                              num_segments);
}

#pragma pack(pop)

inline std::uint32_t
Superblock::computeChecksum() const
{
    Superblock copy = *this;
    copy.checksum = 0;
    return checksum32({reinterpret_cast<const std::uint8_t *>(&copy),
                       sizeof(copy)});
}

inline bool
Superblock::valid() const
{
    return magic == superMagic && version == formatVersion &&
           checksum == computeChecksum();
}

inline std::uint32_t
Superblock::imapEntriesPerChunk() const
{
    return blockSize / sizeof(ImapEntry);
}

inline std::uint32_t
Superblock::summaryBlocksPerSegment() const
{
    std::uint32_t s = 1;
    while (sizeof(SummaryHeader) +
               std::uint64_t(segBlocks - s) * sizeof(SummaryEntry) >
           std::uint64_t(s) * blockSize) {
        ++s;
    }
    return s;
}

} // namespace raid2::lfs

#endif // RAID2_LFS_FORMAT_HH
