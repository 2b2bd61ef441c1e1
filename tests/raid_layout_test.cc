/**
 * @file
 * RAID layout mapping tests, including parameterized property sweeps:
 * every logical byte maps to exactly one (disk, offset); extents
 * cover ranges exactly; RAID-5 parity rotates left-symmetrically and
 * never collides with data of the same stripe.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "raid/raid_layout.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using raid::DiskExtent;
using raid::LayoutConfig;
using raid::RaidLayout;
using raid::RaidLevel;

LayoutConfig
makeCfg(RaidLevel level, unsigned disks, std::uint64_t unit = 64 * 1024)
{
    LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks = disks;
    cfg.stripeUnitBytes = unit;
    return cfg;
}

TEST(RaidLayout, CapacityByLevel)
{
    const std::uint64_t disk = 10 * 1024 * 1024;
    EXPECT_EQ(RaidLayout(makeCfg(RaidLevel::Raid0, 8), disk)
                  .dataCapacity(),
              8 * (disk / (64 * 1024)) * (64 * 1024ull));
    EXPECT_EQ(RaidLayout(makeCfg(RaidLevel::Raid1, 8), disk)
                  .dataUnitsPerStripe(),
              4u);
    EXPECT_EQ(RaidLayout(makeCfg(RaidLevel::Raid5, 8), disk)
                  .dataUnitsPerStripe(),
              7u);
    EXPECT_EQ(RaidLayout(makeCfg(RaidLevel::Raid3, 8), disk)
                  .dataUnitsPerStripe(),
              7u);
}

TEST(RaidLayout, Raid5LeftSymmetricParityRotation)
{
    RaidLayout layout(makeCfg(RaidLevel::Raid5, 5), 10 * 1024 * 1024);
    // Left-symmetric: parity walks from the last disk down.
    EXPECT_EQ(layout.parityDisk(0), 4u);
    EXPECT_EQ(layout.parityDisk(1), 3u);
    EXPECT_EQ(layout.parityDisk(2), 2u);
    EXPECT_EQ(layout.parityDisk(3), 1u);
    EXPECT_EQ(layout.parityDisk(4), 0u);
    EXPECT_EQ(layout.parityDisk(5), 4u);
}

TEST(RaidLayout, Raid5SequentialUnitsVisitAllDisks)
{
    RaidLayout layout(makeCfg(RaidLevel::Raid5, 5), 10 * 1024 * 1024);
    // Within one stripe, data disks are all disks except parity.
    for (std::uint64_t s = 0; s < 10; ++s) {
        std::set<unsigned> used;
        for (unsigned k = 0; k < 4; ++k)
            used.insert(layout.dataDisk(s, k));
        EXPECT_EQ(used.size(), 4u);
        EXPECT_FALSE(used.count(layout.parityDisk(s)));
    }
}

TEST(RaidLayout, Raid5SequentialRunsAreContiguousPerDisk)
{
    // Left-symmetric layout: reading sequentially, each disk's
    // consecutive data units are physically contiguous.
    RaidLayout layout(makeCfg(RaidLevel::Raid5, 5, 1024),
                      1024 * 1024);
    auto extents = layout.mapRange(0, 5 * 4 * 1024); // 5 stripes
    // 4 data units per stripe over 5 disks: each disk's data run is
    // broken only where its parity unit interrupts it, giving 8
    // extents rather than the 20 an unstacked layout would need.
    EXPECT_EQ(extents.size(), 8u);
}

TEST(RaidLayout, MirrorPairing)
{
    RaidLayout layout(makeCfg(RaidLevel::Raid1, 6), 1024 * 1024);
    EXPECT_EQ(layout.mirrorDisk(0), 3u);
    EXPECT_EQ(layout.mirrorDisk(2), 5u);
}

TEST(RaidLayout, Raid3SpreadsEverythingOverAllDataDisks)
{
    RaidLayout layout(makeCfg(RaidLevel::Raid3, 5), 1024 * 1024);
    auto extents = layout.mapRange(0, 64 * 1024);
    EXPECT_EQ(extents.size(), 4u); // all data disks
    for (const auto &e : extents)
        EXPECT_LT(e.disk, 4u);
}

struct LevelParam
{
    RaidLevel level;
    unsigned disks;
};

class LayoutProperty : public ::testing::TestWithParam<LevelParam>
{
};

TEST_P(LayoutProperty, MapByteIsABijectionOnDataSpace)
{
    const auto p = GetParam();
    RaidLayout layout(makeCfg(p.level, p.disks, 4096), 256 * 1024);
    std::map<std::pair<unsigned, std::uint64_t>, std::uint64_t> seen;
    // Check a prefix byte-by-byte at coarse stride plus block edges.
    const std::uint64_t cap = layout.dataCapacity();
    sim::Random rng(1);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t logical = rng.below(cap);
        unsigned d;
        std::uint64_t off;
        layout.mapByte(logical, d, off);
        ASSERT_LT(d, p.disks);
        auto [it, inserted] = seen.emplace(std::make_pair(d, off),
                                           logical);
        if (!inserted) {
            EXPECT_EQ(it->second, logical)
                << "two logical bytes share a physical byte";
        }
    }
}

TEST_P(LayoutProperty, MapRangeCoversExactly)
{
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid3)
        GTEST_SKIP() << "RAID-3 extents are row-padded by design";
    RaidLayout layout(makeCfg(p.level, p.disks, 4096), 256 * 1024);
    sim::Random rng(2);
    const std::uint64_t cap = layout.dataCapacity();
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t len = 1 + rng.below(96 * 1024);
        const std::uint64_t off = rng.below(cap - len);
        std::uint64_t total = 0;
        for (const DiskExtent &e : layout.mapRange(off, len)) {
            total += e.bytes;
            ASSERT_LT(e.disk, p.disks);
            ASSERT_GE(e.logicalOffset, off);
            ASSERT_LE(e.logicalOffset + e.bytes, off + len);
        }
        EXPECT_EQ(total, len);
    }
}

TEST_P(LayoutProperty, CoalescedExtentsCoverSameDiskBytes)
{
    // The timing view may merge logically strided pieces; it must
    // still cover exactly the same physical (disk, offset) bytes as
    // the functional view.
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid3)
        GTEST_SKIP();
    RaidLayout layout(makeCfg(p.level, p.disks, 4096), 256 * 1024);
    sim::Random rng(13);
    const std::uint64_t cap = layout.dataCapacity();
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t len = 1 + rng.below(64 * 1024);
        const std::uint64_t off = rng.below(cap - len);
        std::map<unsigned, std::set<std::uint64_t>> timing, functional;
        for (const DiskExtent &e : layout.mapRange(off, len, true))
            for (std::uint64_t b = 0; b < e.bytes; ++b)
                timing[e.disk].insert(e.diskOffset + b);
        for (const DiskExtent &e : layout.mapRange(off, len, false))
            for (std::uint64_t b = 0; b < e.bytes; ++b)
                functional[e.disk].insert(e.diskOffset + b);
        ASSERT_EQ(timing, functional);
    }
}

TEST_P(LayoutProperty, ExtentsAgreeWithMapByte)
{
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid3)
        GTEST_SKIP() << "RAID-3 extents are row-padded by design";
    RaidLayout layout(makeCfg(p.level, p.disks, 4096), 256 * 1024);
    sim::Random rng(3);
    const std::uint64_t cap = layout.dataCapacity();
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t len = 1 + rng.below(32 * 1024);
        const std::uint64_t off = rng.below(cap - len);
        for (const DiskExtent &e : layout.mapRange(off, len, false)) {
            // Spot-check first and last byte of each extent.
            unsigned d;
            std::uint64_t db;
            layout.mapByte(e.logicalOffset, d, db);
            EXPECT_EQ(d, e.disk);
            EXPECT_EQ(db, e.diskOffset);
            layout.mapByte(e.logicalOffset + e.bytes - 1, d, db);
            EXPECT_EQ(d, e.disk);
            EXPECT_EQ(db, e.diskOffset + e.bytes - 1);
        }
    }
}

TEST_P(LayoutProperty, StripeSpansPartitionRanges)
{
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid3)
        GTEST_SKIP();
    RaidLayout layout(makeCfg(p.level, p.disks, 4096), 256 * 1024);
    sim::Random rng(4);
    const std::uint64_t cap = layout.dataCapacity();
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t len = 1 + rng.below(64 * 1024);
        const std::uint64_t off = rng.below(cap - len);
        std::uint64_t pos = off;
        for (const auto &s : layout.mapStripes(off, len)) {
            EXPECT_EQ(s.logicalOffset, pos);
            EXPECT_EQ(s.stripe, layout.stripeOf(pos));
            EXPECT_GT(s.bytes, 0u);
            pos += s.bytes;
        }
        EXPECT_EQ(pos, off + len);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, LayoutProperty,
    ::testing::Values(LevelParam{RaidLevel::Raid0, 4},
                      LevelParam{RaidLevel::Raid0, 24},
                      LevelParam{RaidLevel::Raid1, 4},
                      LevelParam{RaidLevel::Raid1, 16},
                      LevelParam{RaidLevel::Raid3, 5},
                      LevelParam{RaidLevel::Raid5, 5},
                      LevelParam{RaidLevel::Raid5, 16},
                      LevelParam{RaidLevel::Raid5, 24}),
    [](const ::testing::TestParamInfo<LevelParam> &info) {
        return "Raid" +
               std::string(raid::raidLevelName(info.param.level) + 5) +
               "_" + std::to_string(info.param.disks) + "disks";
    });

} // namespace
