/**
 * @file
 * LFS edge-case and stress tests beyond the core suite: inode-map
 * chunk boundaries, inode exhaustion and number reuse, directories
 * spanning many blocks, deep nesting, sparse files through the
 * double-indirect level, truncate interactions with the cleaner,
 * mapFile on unsynced data, and mixed churn with periodic fsck.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using lfs::Errno;
using lfs::Lfs;
using lfs::LfsError;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

TEST(LfsEdge, InodesAcrossImapChunkBoundaries)
{
    // 4 KB imap chunks hold 256 entries; force allocation past the
    // first chunk and remount.
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    p.maxInodes = 600; // 3 chunks
    Lfs::format(dev, p);
    {
        Lfs fs(dev);
        for (int i = 0; i < 500; ++i)
            fs.create("/f" + std::to_string(i));
        fs.checkpoint();
    }
    Lfs fs(dev);
    for (int i = 0; i < 500; i += 37)
        EXPECT_TRUE(fs.exists("/f" + std::to_string(i))) << i;
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, InodeExhaustionAndReuse)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    p.maxInodes = 40;
    Lfs::format(dev, p);
    Lfs fs(dev);

    // Fill the inode table (root takes one).
    std::vector<std::string> names;
    for (int i = 0; i < 38; ++i) {
        names.push_back("/f" + std::to_string(i));
        fs.create(names.back());
    }
    EXPECT_THROW(fs.create("/overflow"), LfsError);

    // Free some and reallocate: numbers recycle with fresh
    // generations.
    for (int i = 0; i < 10; ++i)
        fs.unlink(names[i]);
    for (int i = 0; i < 10; ++i)
        fs.create("/new" + std::to_string(i));
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, LargeDirectorySpansManyBlocks)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    p.maxInodes = 2048;
    Lfs::format(dev, p);
    Lfs fs(dev);

    fs.mkdir("/big");
    const int n = 700; // ~20 KB of entries: several dir blocks
    for (int i = 0; i < n; ++i)
        fs.create("/big/file-with-a-longish-name-" +
                  std::to_string(i));
    EXPECT_EQ(fs.readdir("/big").size(), static_cast<std::size_t>(n));
    // Remove every third entry and verify the rest survive.
    for (int i = 0; i < n; i += 3)
        fs.unlink("/big/file-with-a-longish-name-" +
                  std::to_string(i));
    const auto entries = fs.readdir("/big");
    EXPECT_EQ(entries.size(), static_cast<std::size_t>(n - (n + 2) / 3));
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, DeepDirectoryNesting)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    Lfs fs(dev);

    std::string path;
    for (int i = 0; i < 40; ++i) {
        path += "/d" + std::to_string(i);
        fs.mkdir(path);
    }
    const auto ino = fs.create(path + "/leaf");
    const auto data = pattern(5000, 1);
    fs.write(ino, 0, {data.data(), data.size()});
    EXPECT_EQ(fs.stat(path + "/leaf").size, 5000u);
    fs.checkpoint();

    Lfs remounted(dev);
    EXPECT_TRUE(remounted.exists(path + "/leaf"));
    EXPECT_TRUE(remounted.fsck().ok);
}

TEST(LfsEdge, SparseDoubleIndirectFile)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    Lfs fs(dev);

    const auto ino = fs.create("/sparse");
    // One block far into the double-indirect range.
    const std::uint64_t far =
        (12 + 512 + 5000) * 4096ull; // fbno ~5512
    const auto data = pattern(4096, 2);
    fs.write(ino, far, {data.data(), data.size()});
    EXPECT_EQ(fs.statIno(ino).size, far + 4096);

    // Holes before it read as zero; the written block reads back.
    std::vector<std::uint8_t> back(4096);
    fs.read(ino, far - 4096, {back.data(), back.size()});
    EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                            [](std::uint8_t b) { return b == 0; }));
    fs.read(ino, far, {back.data(), back.size()});
    EXPECT_EQ(back, data);

    // mapFile flags the giant hole.
    const auto extents = fs.mapFile(ino, 0, far + 4096);
    std::uint64_t hole_bytes = 0;
    for (const auto &e : extents)
        hole_bytes += e.hole ? e.bytes : 0;
    EXPECT_GE(hole_bytes, far - 64 * 4096);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, TruncateThenCleanThenRecover)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    std::vector<std::uint8_t> keep;
    {
        Lfs fs(dev);
        const auto ino = fs.create("/f");
        const auto data = pattern(3 * 1024 * 1024, 3);
        fs.write(ino, 0, {data.data(), data.size()});
        fs.truncate(ino, 100000);
        keep.assign(data.begin(), data.begin() + 100000);
        fs.sync();
        fs.clean(static_cast<unsigned>(fs.totalSegments()));
        fs.checkpoint();
    }
    Lfs fs(dev);
    EXPECT_EQ(fs.stat("/f").size, 100000u);
    std::vector<std::uint8_t> back(100000);
    fs.read(fs.lookup("/f"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, keep);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, MapFileWorksOnUnsyncedData)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    Lfs fs(dev);

    const auto ino = fs.create("/f");
    const auto data = pattern(50000, 4);
    fs.write(ino, 0, {data.data(), data.size()});
    // No sync: blocks live in the open segment, but their device
    // addresses are already final.
    const auto extents = fs.mapFile(ino, 0, 50000);
    std::uint64_t covered = 0;
    for (const auto &e : extents) {
        EXPECT_FALSE(e.hole);
        covered += e.bytes;
    }
    EXPECT_EQ(covered, 50000u);
}

TEST(LfsEdge, ZeroLengthAndBoundaryIo)
{
    fs::MemBlockDevice dev(4096, 16384);
    Lfs::Params p;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    Lfs fs(dev);

    const auto ino = fs.create("/f");
    EXPECT_EQ(fs.write(ino, 0, {}), 0u);
    EXPECT_EQ(fs.statIno(ino).size, 0u);

    // Exactly one block, then exactly the block boundary + 1.
    const auto block = pattern(4096, 5);
    fs.write(ino, 0, {block.data(), block.size()});
    const auto one = pattern(1, 6);
    fs.write(ino, 4096, {one.data(), one.size()});
    EXPECT_EQ(fs.statIno(ino).size, 4097u);
    std::vector<std::uint8_t> back(4097);
    EXPECT_EQ(fs.read(ino, 0, {back.data(), back.size()}), 4097u);
    EXPECT_TRUE(std::equal(block.begin(), block.end(), back.begin()));
    EXPECT_EQ(back[4096], one[0]);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsEdge, ChurnWithPeriodicChecksSurvives)
{
    fs::MemBlockDevice dev(4096, 32768); // 128 MB
    Lfs::Params p;
    p.segBlocks = 64;
    Lfs::format(dev, p);
    Lfs fs(dev);
    fs.setAutoClean(true);

    sim::Random rng(9);
    std::vector<std::string> live;
    for (int step = 0; step < 400; ++step) {
        const double dice = rng.unit();
        if (dice < 0.4 || live.empty()) {
            const std::string name =
                "/c" + std::to_string(step);
            const auto ino = fs.create(name);
            const auto data = pattern(1000 + rng.below(150000), step);
            fs.write(ino, 0, {data.data(), data.size()});
            live.push_back(name);
        } else if (dice < 0.7) {
            const auto &name = live[rng.below(live.size())];
            const auto ino = fs.lookup(name);
            const auto data = pattern(1000 + rng.below(80000), step);
            fs.write(ino, rng.below(100000),
                     {data.data(), data.size()});
        } else if (dice < 0.85) {
            const std::size_t idx = rng.below(live.size());
            fs.unlink(live[idx]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        } else if (dice < 0.95) {
            fs.sync();
        } else {
            fs.checkpoint();
        }
        if (step % 100 == 99) {
            ASSERT_TRUE(fs.fsck().ok) << "at step " << step;
        }
    }
    EXPECT_TRUE(fs.fsck().ok);
}

} // namespace
