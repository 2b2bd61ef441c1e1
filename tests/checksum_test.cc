/**
 * @file
 * The on-media checksum (format v3): known-answer vectors that pin the
 * function, exhaustive single-bit-flip detection over a 4 KB block,
 * rejection of an older-format image at mount, and per-block payload
 * validation ending roll-forward at a corrupted segment.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/format.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using lfs::Lfs;
using lfs::LfsError;

constexpr std::uint32_t kBs = 4096;

/** Byte i is (131 i + 17) mod 256: the known-answer input. */
std::vector<std::uint8_t>
kaInput(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 131 + 17);
    return v;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

std::uint64_t
sum(const std::vector<std::uint8_t> &v)
{
    return lfs::checksum({v.data(), v.size()});
}

TEST(Checksum, KnownAnswersPinFormatV3)
{
    // Computed by an independent implementation of the definition in
    // docs/LFS_FORMAT.md, for a little-endian host.  Any change here is an
    // on-media format change and needs a new formatVersion.
    EXPECT_EQ(lfs::formatVersion, 3u);
    EXPECT_EQ(sum(kaInput(0)), 0x0b82b2df01bc4321ull);
    EXPECT_EQ(sum(kaInput(1)), 0x42f96d99a933d1f8ull);
    EXPECT_EQ(sum(kaInput(31)), 0x663d02c2eaea6432ull);
    EXPECT_EQ(sum(kaInput(32)), 0xe558328482418c6dull);
    EXPECT_EQ(sum(kaInput(33)), 0x93ce8a8f4a49266aull);
    EXPECT_EQ(sum(kaInput(4096)), 0xa3ff6975220aec33ull);

    const auto v = kaInput(4096);
    EXPECT_EQ(lfs::checksum32({v.data(), v.size()}), 0x220aec33u)
        << "32-bit header fields take the low half";
}

TEST(Checksum, EverySingleBitFlipOfABlockIsDetected)
{
    auto blk = pattern(kBs, 42);
    const std::uint64_t base = sum(blk);
    for (std::size_t bit = 0; bit < std::size_t(kBs) * 8; ++bit) {
        blk[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        ASSERT_NE(sum(blk), base) << "flip of bit " << bit << " missed";
        blk[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
    EXPECT_EQ(sum(blk), base);
}

TEST(Checksum, LengthAndZeroPaddingMatter)
{
    // An all-zero block must not collide with a shorter zero run (the
    // segment writer pads with zeros).
    const std::vector<std::uint8_t> z4k(kBs, 0), z4k8(kBs + 8, 0);
    EXPECT_NE(sum(z4k), sum(z4k8));
    EXPECT_NE(sum(z4k), sum(std::vector<std::uint8_t>{}));
}

TEST(FormatVersion, OlderImageIsRejectedWithAClearError)
{
    fs::MemBlockDevice dev(kBs, 4096);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);

    // Rewrite block 0 as a v2 superblock, self-consistent in every
    // other respect.
    std::vector<std::uint8_t> block(kBs);
    dev.readBlock(0, {block.data(), block.size()});
    lfs::Superblock sb;
    std::memcpy(&sb, block.data(), sizeof(sb));
    sb.version = 2;
    sb.checksum = sb.computeChecksum();
    std::memcpy(block.data(), &sb, sizeof(sb));
    dev.writeBlock(0, {block.data(), block.size()});

    try {
        Lfs fs(dev);
        FAIL() << "a v2 image mounted";
    } catch (const LfsError &e) {
        EXPECT_EQ(e.code(), lfs::Errno::Invalid);
        const std::string what = e.what();
        EXPECT_NE(what.find("format v2"), std::string::npos) << what;
        EXPECT_NE(what.find("v3"), std::string::npos) << what;
    }
}

/**
 * Checkpoint, then sync /a and /b in two separate segments and drop
 * the in-memory state; with @p flip_newest, one bit of one payload
 * block of the newest segment is flipped on media before remount.
 */
struct RollRig
{
    fs::MemBlockDevice dev{kBs, 16384};
    std::vector<std::uint8_t> dataA = pattern(20000, 1);
    std::vector<std::uint8_t> dataB = pattern(20000, 2);

    explicit RollRig(bool flip_newest)
    {
        Lfs::Params p;
        p.segBlocks = 32;
        Lfs::format(dev, p);
        {
            Lfs fs(dev);
            fs.checkpoint();
            const auto a = fs.create("/a");
            fs.write(a, 0, {dataA.data(), dataA.size()});
            fs.sync();
            const auto b = fs.create("/b");
            fs.write(b, 0, {dataB.data(), dataB.size()});
            fs.sync();
        }
        if (flip_newest)
            flipNewestPayloadBit();
    }

    void
    flipNewestPayloadBit()
    {
        std::vector<std::uint8_t> block(kBs);
        dev.readBlock(0, {block.data(), block.size()});
        lfs::Superblock sb;
        std::memcpy(&sb, block.data(), sizeof(sb));

        std::uint64_t newest = sb.numSegments, newest_seq = 0;
        lfs::SummaryHeader newest_hdr{};
        for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
            dev.readBlock(sb.segmentStartBlock(s),
                          {block.data(), block.size()});
            lfs::SummaryHeader hdr;
            std::memcpy(&hdr, block.data(), sizeof(hdr));
            if (hdr.magic == lfs::summaryMagic && hdr.segSeq > newest_seq) {
                newest = s;
                newest_seq = hdr.segSeq;
                newest_hdr = hdr;
            }
        }
        ASSERT_LT(newest, sb.numSegments);
        const std::uint64_t bno = sb.segmentStartBlock(newest) +
                                  sb.summaryBlocksPerSegment() +
                                  newest_hdr.count / 2;
        dev.readBlock(bno, {block.data(), block.size()});
        block[1234] ^= 0x10;
        dev.writeBlock(bno, {block.data(), block.size()});
    }
};

TEST(RollForward, CorruptPayloadBlockEndsRecoveryAtItsSegment)
{
    RollRig clean(false);
    RollRig flipped(true);

    Lfs good(clean.dev);
    Lfs bad(flipped.dev);
    ASSERT_GE(good.stats().rollForwardSegments, 2u);
    EXPECT_EQ(bad.stats().rollForwardSegments,
              good.stats().rollForwardSegments - 1)
        << "roll-forward must stop at the corrupted newest segment";

    ASSERT_TRUE(good.exists("/b"));
    EXPECT_FALSE(bad.exists("/b"));
    ASSERT_TRUE(bad.exists("/a"));
    std::vector<std::uint8_t> back(flipped.dataA.size());
    bad.read(bad.lookup("/a"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, flipped.dataA);
    EXPECT_TRUE(bad.fsck().ok);
    EXPECT_TRUE(good.fsck().ok);
}

} // namespace
