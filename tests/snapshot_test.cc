/**
 * @file
 * Snapshot subsystem tests: point-in-time SnapshotView reads that
 * survive overwrites, the cleaner × snapshot pinning property (a full
 * cleaner pass never reclaims pinned segments and snapshot reads stay
 * byte-identical under heavy rewrite traffic), and the server-level
 * SnapshotManager lifecycle with its stats tree.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"
#include "snap/snapshot_manager.hh"
#include "snap/snapshot_view.hh"

namespace {

using namespace raid2;

/** Deterministic content: byte i of (len, seed) is fixed forever. */
std::vector<std::uint8_t>
fill(std::uint64_t len, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(len);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (auto &b : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x);
    }
    return v;
}

lfs::Lfs::Params
smallParams()
{
    lfs::Lfs::Params p;
    p.blockSize = 1024;
    p.segBlocks = 16;
    p.maxInodes = 256;
    return p;
}

std::vector<std::uint8_t>
readAll(const snap::SnapshotView &view, const std::string &path)
{
    const lfs::Stat st = view.stat(path);
    std::vector<std::uint8_t> out(st.size);
    if (st.size > 0)
        view.read(st.ino, 0, {out.data(), out.size()});
    return out;
}

TEST(SnapshotView, PointInTimeReadsSurviveOverwrites)
{
    fs::MemBlockDevice dev(1024, 8192); // 8 MB
    lfs::Lfs::format(dev, smallParams());
    lfs::Lfs fs(dev);
    fs.setAutoClean(true);

    const auto a0 = fill(20 * 1024, 1);
    const auto b0 = fill(100 * 1024, 2); // reaches the indirect tree
    fs.create("/a");
    fs.write(fs.lookup("/a"), 0, {a0.data(), a0.size()});
    fs.mkdir("/d");
    fs.create("/d/b");
    fs.write(fs.lookup("/d/b"), 0, {b0.data(), b0.size()});

    fs.takeSnapshot("s1");
    const lfs::SnapshotRecord rec = *fs.findSnapshot("s1");

    // Mutate everything the snapshot captured.
    const auto a1 = fill(5 * 1024, 3);
    fs.write(fs.lookup("/a"), 0, {a1.data(), a1.size()});
    fs.truncate(fs.lookup("/a"), a1.size());
    fs.unlink("/d/b");
    fs.create("/later");
    fs.sync();

    const snap::SnapshotView view(dev, rec);
    EXPECT_TRUE(view.exists("/a"));
    EXPECT_TRUE(view.exists("/d/b"));
    EXPECT_FALSE(view.exists("/later"));
    EXPECT_EQ(view.stat("/a").size, a0.size());
    EXPECT_EQ(readAll(view, "/a"), a0);
    EXPECT_EQ(readAll(view, "/d/b"), b0);

    // Namespace as of the snapshot.
    std::vector<std::string> names;
    for (const auto &e : view.readdir("/"))
        names.push_back(e.name);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "d"}));

    std::uint64_t walked = 0;
    view.walk([&](const std::string &, const lfs::Stat &) {
        ++walked;
    });
    EXPECT_EQ(walked, 4u); // "/", /a, /d, /d/b
    EXPECT_GT(view.reads(), 0u);

    // The live file system sees only the new state.
    EXPECT_EQ(fs.stat("/a").size, a1.size());
    EXPECT_THROW(fs.stat("/d/b"), lfs::LfsError);
}

TEST(SnapshotProperty, CleanerNeverReclaimsPinnedSegments)
{
    fs::MemBlockDevice dev(1024, 8192);
    lfs::Lfs::format(dev, smallParams());
    lfs::Lfs fs(dev);
    fs.setAutoClean(true);

    // A population the snapshot will pin.
    std::vector<std::vector<std::uint8_t>> content;
    for (unsigned i = 0; i < 6; ++i) {
        const std::string path = "/f" + std::to_string(i);
        fs.create(path);
        content.push_back(fill(30 * 1024 + i * 1024, 10 + i));
        fs.write(fs.lookup(path), 0,
                 {content[i].data(), content[i].size()});
    }
    fs.takeSnapshot("pinned");
    const lfs::SnapshotRecord rec = *fs.findSnapshot("pinned");
    std::uint64_t pinned_count = 0;
    for (std::uint64_t s = 0; s < fs.totalSegments(); ++s)
        pinned_count += rec.pinned[s] ? 1 : 0;
    ASSERT_GT(pinned_count, 0u);

    // Heavy overwrite traffic: many rewrite rounds, each followed by
    // an explicit full cleaner pass hunting for every free segment it
    // can make.  The pinned set must survive all of it.
    for (unsigned round = 0; round < 8; ++round) {
        for (unsigned i = 0; i < 6; ++i) {
            const auto junk = fill(25 * 1024, 100 + round * 8 + i);
            fs.write(fs.lookup("/f" + std::to_string(i)), 0,
                     {junk.data(), junk.size()});
        }
        fs.sync();
        fs.clean(static_cast<unsigned>(fs.totalSegments()));
        for (std::uint64_t s = 0; s < fs.totalSegments(); ++s) {
            if (rec.pinned[s]) {
                ASSERT_TRUE(fs.segmentPinned(s))
                    << "segment " << s << " unpinned in round "
                    << round;
            }
        }
    }

    // Snapshot reads are byte-identical to the captured content.
    const snap::SnapshotView view(dev, rec);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(readAll(view, "/f" + std::to_string(i)), content[i])
            << "/f" << i;
    EXPECT_TRUE(fs.fsck().ok);

    // Deleting the snapshot releases the pins.
    fs.deleteSnapshot("pinned");
    std::uint64_t still = 0;
    for (std::uint64_t s = 0; s < fs.totalSegments(); ++s)
        still += fs.segmentPinned(s) ? 1 : 0;
    EXPECT_EQ(still, 0u);
}

server::Raid2Server::Config
serverConfig()
{
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.withFs = true;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

TEST(SnapshotManager, LifecycleCountersAndStats)
{
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "s", serverConfig());
    snap::SnapshotManager mgr(srv);

    const auto data = fill(64 * 1024, 5);
    const lfs::InodeNum ino = srv.createFile("/f");
    srv.fs().write(ino, 0, {data.data(), data.size()});

    const std::uint32_t id = mgr.create("alpha");
    EXPECT_EQ(mgr.list().size(), 1u);
    ASSERT_NE(mgr.find("alpha"), nullptr);
    EXPECT_EQ(mgr.find("alpha")->id, id);
    EXPECT_GT(mgr.pinnedSegments(), 0u);

    const snap::SnapshotView view = mgr.open("alpha");
    EXPECT_EQ(readAll(view, "/f"), data);
    EXPECT_THROW(mgr.open("missing"), lfs::LfsError);

    sim::StatsRegistry reg;
    mgr.registerStats(reg);
    for (const char *key :
         {"snap.created", "snap.deleted", "snap.views", "snap.count",
          "snap.pinned_segments"}) {
        EXPECT_TRUE(reg.contains(key)) << key;
    }

    mgr.remove("alpha");
    EXPECT_TRUE(mgr.list().empty());
    EXPECT_EQ(mgr.created(), 1u);
    EXPECT_EQ(mgr.deleted(), 1u);
    EXPECT_EQ(mgr.viewsOpened(), 1u);
}

TEST(SnapshotManager, TimedCreateDrainsThroughArray)
{
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "s", serverConfig());
    snap::SnapshotManager mgr(srv);

    const auto data = fill(128 * 1024, 6);
    const lfs::InodeNum ino = srv.createFile("/f");
    srv.fs().write(ino, 0, {data.data(), data.size()});

    bool done = false;
    std::uint32_t got = 0;
    mgr.createTimed("timed", [&](std::uint32_t id) {
        got = id;
        done = true;
    });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    ASSERT_NE(mgr.find("timed"), nullptr);
    EXPECT_EQ(mgr.find("timed")->id, got);
    EXPECT_GT(eq.now(), 0u); // the drain took simulated time
}

} // namespace
