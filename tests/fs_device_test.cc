/**
 * @file
 * Block-device layer tests: the MemBlockDevice basics, multi-block
 * helpers, FaultDevice crash/tear semantics, HookBlockDevice
 * observation, and ArrayBlockDevice over real RAID parity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fs/array_block_device.hh"
#include "fs/fault_device.hh"
#include "fs/mem_block_device.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;

std::vector<std::uint8_t>
block(std::uint8_t fill, std::size_t n = 4096)
{
    return std::vector<std::uint8_t>(n, fill);
}

TEST(MemBlockDevice, ReadsBackWrites)
{
    fs::MemBlockDevice dev(4096, 64);
    const auto a = block(0xaa);
    dev.writeBlock(7, {a.data(), a.size()});
    std::vector<std::uint8_t> out(4096);
    dev.readBlock(7, {out.data(), out.size()});
    EXPECT_EQ(out, a);
    EXPECT_EQ(dev.readsStat().value(), 1u);
    EXPECT_EQ(dev.writesStat().value(), 1u);
    EXPECT_EQ(dev.capacityBytes(), 64u * 4096);
}

TEST(MemBlockDevice, MultiBlockHelpers)
{
    fs::MemBlockDevice dev(4096, 64);
    std::vector<std::uint8_t> buf(3 * 4096);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i / 4096 + 1);
    dev.writeBlocks(10, 3, {buf.data(), buf.size()});
    std::vector<std::uint8_t> out(3 * 4096);
    dev.readBlocks(10, 3, {out.data(), out.size()});
    EXPECT_EQ(out, buf);
}

TEST(FaultDevice, DropsWritesAfterLimit)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    const auto a = block(1), b = block(2), c = block(3);
    dev.setWriteLimit(2);
    dev.writeBlock(0, {a.data(), a.size()});
    dev.writeBlock(1, {b.data(), b.size()});
    dev.writeBlock(2, {c.data(), c.size()}); // dropped
    EXPECT_TRUE(dev.crashed());
    EXPECT_EQ(dev.droppedWrites(), 1u);

    std::vector<std::uint8_t> out(4096);
    mem.readBlock(0, {out.data(), out.size()});
    EXPECT_EQ(out, a);
    mem.readBlock(2, {out.data(), out.size()});
    EXPECT_EQ(out, block(0)); // never arrived

    dev.heal();
    dev.writeBlock(2, {c.data(), c.size()});
    mem.readBlock(2, {out.data(), out.size()});
    EXPECT_EQ(out, c);
}

TEST(FaultDevice, TearGarblesTheFirstDroppedWrite)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    dev.setTearOnCrash(true);
    dev.setWriteLimit(0);
    const auto a = block(0x11);
    dev.writeBlock(5, {a.data(), a.size()});
    std::vector<std::uint8_t> out(4096);
    mem.readBlock(5, {out.data(), out.size()});
    // First half landed, the rest is garbage.
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2048, a.begin()));
    EXPECT_NE(out, a);
}

TEST(FaultDevice, HealResetsCrashStateForTheNextCrash)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    dev.setTearOnCrash(true);
    dev.setWriteLimit(0);
    const auto a = block(0x11);
    dev.writeBlock(5, {a.data(), a.size()}); // torn
    EXPECT_EQ(dev.droppedWrites(), 1u);

    dev.heal();
    EXPECT_FALSE(dev.crashed());
    EXPECT_EQ(dev.droppedWrites(), 0u); // stats reset with the fault

    // A second crash tears again: heal() must rearm tearDone, or the
    // post-heal crash silently drops where the first one tore.
    dev.setWriteLimit(0);
    const auto b = block(0x22);
    dev.writeBlock(9, {b.data(), b.size()});
    EXPECT_EQ(dev.droppedWrites(), 1u);
    std::vector<std::uint8_t> out(4096);
    mem.readBlock(9, {out.data(), out.size()});
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2048, b.begin()));
    EXPECT_NE(out, b); // torn, not untouched
}

TEST(HookBlockDevice, ObservesTraffic)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::HookBlockDevice dev(mem);
    std::uint64_t reads = 0, writes = 0, write_bytes = 0;
    dev.setHook([&](std::uint64_t off, std::uint64_t len, bool w) {
        EXPECT_EQ(off % 4096, 0u);
        if (!w) {
            ++reads;
            return;
        }
        ++writes;
        write_bytes += len;
    });
    const auto a = block(9);
    std::vector<std::uint8_t> out(4096);
    dev.writeBlock(3, {a.data(), a.size()});
    dev.readBlock(3, {out.data(), out.size()});
    EXPECT_EQ(reads, 1u);
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(write_bytes, 4096u);
    EXPECT_EQ(out, a);
}

TEST(ArrayBlockDevice, MaintainsParityUnderneath)
{
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = 4096;
    raid::RaidArray array(cfg, 1024 * 1024);
    fs::ArrayBlockDevice dev(array, 4096);

    sim::Random rng(1);
    for (int i = 0; i < 50; ++i) {
        auto b = block(static_cast<std::uint8_t>(rng.next()));
        dev.writeBlock(rng.below(dev.numBlocks()),
                       {b.data(), b.size()});
    }
    EXPECT_TRUE(array.redundancyConsistent());

    // A device-level read survives a disk failure transparently.
    const auto marker = block(0x5e);
    dev.writeBlock(11, {marker.data(), marker.size()});
    array.failDisk(2);
    std::vector<std::uint8_t> out(4096);
    dev.readBlock(11, {out.data(), out.size()});
    EXPECT_EQ(out, marker);
}

} // namespace
