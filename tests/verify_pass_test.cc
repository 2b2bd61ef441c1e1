/**
 * @file
 * The two-phase verify pass and the host pool it runs on.
 *
 * VerifyingDevice::verifyExtents hashes healthy blocks in place on the
 * host pool and sends the rest through the copy-and-repair ladder; it
 * must land exactly where copying each extent out and checking it
 * block by block (verifiedReadRange) lands.  The same holds for
 * scrubVerify against a block-at-a-time read.  Each case builds
 * identical arrays, injects the same faults into each, runs one path
 * per array and compares verdicts, counters, the poisoned set, the
 * bytes served and the member-disk bytes left behind.
 *
 * The pool tests cover the properties the pass relies on: every index
 * runs once per loop, however loops follow one another; a forked
 * child verifies without its parent's workers and exits; two threads
 * can verify at once; a one-CPU affinity mask spawns no worker.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fs/array_block_device.hh"
#include "integrity/verifying_device.hh"
#include "raid/raid_array.hh"
#include "sim/host_pool.hh"

namespace {

using namespace raid2;
using integrity::VerifyingDevice;

constexpr std::uint32_t kBs = 4096;
/** One served 512 KB read, not stripe-aligned. */
constexpr std::uint64_t kFirst = 3;
constexpr std::uint64_t kCount = 128;
/** The server hands the pass one request's extents; two here, so
 *  repairs in the first can meet the second's bytes. */
constexpr std::uint64_t kSplit = 64;

std::vector<std::uint8_t>
patternBlock(std::uint64_t bno)
{
    std::vector<std::uint8_t> b(kBs);
    for (std::uint32_t i = 0; i < kBs; ++i)
        b[i] = static_cast<std::uint8_t>(bno * 37 + i * 5 + 1 + (i >> 8));
    return b;
}

struct Rig
{
    raid::RaidArray array;
    fs::ArrayBlockDevice inner;
    VerifyingDevice dev;

    explicit Rig(raid::RaidLevel level)
        : array(layout(level), 512 * 1024), inner(array, kBs),
          dev(inner, &array)
    {
        for (std::uint64_t b = 0; b < kFirst + kCount + 8; ++b) {
            const auto blk = patternBlock(b);
            dev.writeBlock(b, {blk.data(), blk.size()});
        }
    }

    static raid::LayoutConfig
    layout(raid::RaidLevel level)
    {
        raid::LayoutConfig cfg;
        cfg.level = level;
        cfg.numDisks = 8;
        cfg.stripeUnitBytes = 16 * 1024;
        return cfg;
    }

    /** Disk and disk offset of byte @p delta of block @p bno. */
    std::pair<unsigned, std::uint64_t>
    where(std::uint64_t bno, std::uint64_t delta = 0) const
    {
        unsigned d = 0;
        std::uint64_t off = 0;
        array.layout().mapByte(bno * kBs + delta, d, off);
        return {d, off};
    }

    void
    corruptMedia(std::uint64_t bno, std::uint64_t delta)
    {
        const auto [d, off] = where(bno, delta);
        array.diskData(d)[off] ^= 0xa5;
    }
};

enum class Fault { MediaRepairable, Degraded, Latent, FailedDisk, ReadFlip };

struct Case
{
    raid::RaidLevel level;
    Fault fault;
};

std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    static const char *levels[] = {"Raid0", "Raid1", "Raid3", "Raid5"};
    static const char *faults[] = {"MediaRepairable", "Degraded",
                                   "Latent", "FailedDisk", "ReadFlip"};
    return std::string(levels[int(info.param.level)]) + "_" +
           faults[int(info.param.fault)];
}

/** Inject @p f identically into @p rig (deterministic: every rig of a
 *  case gets the same faults at the same bytes).  @p arm_flips false
 *  leaves out the armed read flips. */
void
inject(Rig &rig, Fault f, bool arm_flips = true)
{
    const raid::RaidLayout &lay = rig.array.layout();
    switch (f) {
      case Fault::MediaRepairable:
        rig.corruptMedia(kFirst + 5, 17);
        rig.corruptMedia(kFirst + 40, 4000);
        rig.corruptMedia(kFirst + 100, 0);
        break;
      case Fault::Degraded: {
        // Corrupt one block, then fail the disk its repair needs.
        const std::uint64_t bad = kFirst + 70;
        const unsigned d = rig.where(bad, 9).first;
        rig.corruptMedia(bad, 9);
        rig.corruptMedia(kFirst + 2, 1);
        rig.array.failDisk(lay.level() == raid::RaidLevel::Raid1
                               ? lay.mirrorDisk(d)
                               : (d + 1) % lay.numDisks());
        break;
      }
      case Fault::Latent: {
        // A latent range under a block of the second extent, and media
        // corruption in a first-extent block on another disk at the
        // same disk offsets, when one exists: the second extent's
        // degraded read then goes through the first one's repair.
        const std::uint64_t victim = kFirst + kSplit + 6;
        const auto [vd, voff] = rig.where(victim);
        std::uint64_t bad = kFirst + 5, delta = 0;
        for (std::uint64_t b = kFirst; b < kFirst + kSplit; ++b) {
            for (std::uint64_t i = 0; i < kBs; i += 512) {
                const auto [d, off] = rig.where(b, i);
                if (d != vd && off >= voff && off < voff + kBs) {
                    bad = b;
                    delta = i;
                }
            }
        }
        rig.array.injectLatent(vd, voff, kBs);
        rig.corruptMedia(bad, delta);
        rig.corruptMedia(kFirst + kSplit + 30, 77);
        break;
      }
      case Fault::FailedDisk:
        rig.array.failDisk(2);
        break;
      case Fault::ReadFlip:
        if (arm_flips)
            rig.dev.armReadCorruption(2);
        rig.corruptMedia(kFirst + kSplit + 9, 300);
        break;
    }
}

/** What one pass left behind. */
struct Result
{
    bool ok = true;
    std::uint64_t verified, detected, repairs, media, transfer,
        unrepairable, flips, scrubRepairs;
    std::vector<bool> poisoned;
    /** The bytes of every block not poisoned, as served. */
    std::vector<std::vector<std::uint8_t>> served;
    std::vector<std::vector<std::uint8_t>> disks;

    Result(Rig &rig, bool verdict,
           const std::vector<std::uint8_t> *out)
        : ok(verdict), verified(rig.dev.verifiedBlocks()),
          detected(rig.dev.detected()), repairs(rig.dev.repairs()),
          media(rig.dev.mediaRepairs()),
          transfer(rig.dev.transferRepairs()),
          unrepairable(rig.dev.unrepairableReads()),
          flips(rig.dev.readFlipsApplied()),
          scrubRepairs(rig.dev.scrubRepairs())
    {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            const std::uint64_t b = kFirst + i;
            poisoned.push_back(rig.dev.isPoisoned(b));
            std::vector<std::uint8_t> blk(kBs);
            if (poisoned.back()) {
                // Never served: the read completes DataCorrupt.
            } else if (out) {
                std::memcpy(blk.data(), out->data() + i * kBs, kBs);
            } else {
                // The in-place pass serves what lies on the array.
                rig.inner.readRange(b, 1, blk);
            }
            served.push_back(std::move(blk));
        }
        for (unsigned d = 0; d < rig.array.numDisks(); ++d) {
            const auto bytes = rig.array.diskData(d);
            disks.emplace_back(bytes.begin(), bytes.end());
        }
    }
};

void
expectSame(const Result &a, const Result &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.media, b.media);
    EXPECT_EQ(a.transfer, b.transfer);
    EXPECT_EQ(a.unrepairable, b.unrepairable);
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.scrubRepairs, b.scrubRepairs);
    EXPECT_EQ(a.poisoned, b.poisoned);
    for (std::uint64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(a.served[i], b.served[i]) << "block " << kFirst + i;
    for (std::size_t d = 0; d < a.disks.size(); ++d)
        EXPECT_TRUE(a.disks[d] == b.disks[d]) << "disk " << d;
}

/** Ground truth, so a fault both paths miss alike still fails: every
 *  block served is the block written, and faults were detected. */
void
expectHonest(const Result &r, Fault f)
{
    for (std::uint64_t i = 0; i < kCount; ++i) {
        if (!r.poisoned[i]) {
            EXPECT_EQ(r.served[i], patternBlock(kFirst + i))
                << "block " << kFirst + i;
        }
    }
    if (f != Fault::FailedDisk) {
        EXPECT_GT(r.detected, 0u);
    }
}

class VerifyPass : public testing::TestWithParam<Case>
{
};

TEST_P(VerifyPass, InPlaceEqualsCopyPath)
{
    const Case c = GetParam();
    Rig inPlace(c.level), copied(c.level);
    inject(inPlace, c.fault);
    inject(copied, c.fault);

    const VerifyingDevice::Extent extents[] = {
        {kFirst, kSplit}, {kFirst + kSplit, kCount - kSplit}};
    const bool okA = inPlace.dev.verifyExtents(extents);

    // Reference: copy each extent out, then check it block by block.
    std::vector<std::uint8_t> out(kCount * kBs);
    const bool ok1 = copied.dev.verifiedReadRange(
        kFirst, kSplit, {out.data(), kSplit * kBs});
    const bool ok2 = copied.dev.verifiedReadRange(
        kFirst + kSplit, kCount - kSplit,
        {out.data() + kSplit * kBs, (kCount - kSplit) * kBs});

    const Result a(inPlace, okA, nullptr);
    const Result b(copied, ok1 && ok2, &out);
    expectSame(a, b);
    expectHonest(b, c.fault);
}

TEST_P(VerifyPass, ScrubEqualsBlockAtATimeReads)
{
    // The scrub reads media, not the transfer path: armed read flips
    // stay armed, so the reference reads without them.
    const Case c = GetParam();
    Rig scrubbed(c.level), perBlock(c.level);
    inject(scrubbed, c.fault);
    inject(perBlock, c.fault, false);

    const auto s = scrubbed.dev.scrubVerify(kFirst, kCount);
    EXPECT_EQ(s.scanned, kCount);
    EXPECT_EQ(scrubbed.dev.readFlipsApplied(), 0u);

    std::vector<std::uint8_t> out(kCount * kBs);
    for (std::uint64_t i = 0; i < kCount; ++i)
        perBlock.dev.verifiedReadRange(kFirst + i, 1,
                                       {out.data() + i * kBs, kBs});

    Result a(scrubbed, s.unrepairable == 0, nullptr);
    Result b(perBlock, perBlock.dev.unrepairableReads() == 0, &out);
    EXPECT_EQ(s.repaired, a.scrubRepairs);
    EXPECT_EQ(s.unrepairable, b.unrepairable);
    // Only the scrub counts its repairs as scrub repairs, and only a
    // read counts an unrepairable read.
    a.scrubRepairs = b.scrubRepairs;
    a.unrepairable = b.unrepairable;
    expectSame(a, b);
    expectHonest(b, c.fault);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (raid::RaidLevel level :
         {raid::RaidLevel::Raid1, raid::RaidLevel::Raid3,
          raid::RaidLevel::Raid5})
        for (Fault f : {Fault::MediaRepairable, Fault::Degraded,
                        Fault::Latent, Fault::FailedDisk, Fault::ReadFlip})
            cases.push_back({level, f});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Levels, VerifyPass,
                         testing::ValuesIn(allCases()), caseName);

TEST(VerifyPass, HealthyRaid5RangeHashesInPlace)
{
    // No fault: every block has an in-place image, so nothing is
    // read through the device below.
    Rig rig(raid::RaidLevel::Raid5);
    const double before = rig.inner.readsStat().value();
    const VerifyingDevice::Extent e{kFirst, kCount};
    EXPECT_TRUE(rig.dev.verifyExtents({&e, 1}));
    EXPECT_EQ(rig.inner.readsStat().value(), before);
    EXPECT_EQ(rig.dev.verifiedBlocks(), kCount);
    EXPECT_EQ(rig.dev.detected(), 0u);
}

// ---------------------------------------------------------------------
// HostPool
// ---------------------------------------------------------------------

/** Run @p loops loops of varying size on @p pool and check every
 *  index ran exactly once in each. */
void
expectEveryIndexOnce(sim::HostPool &pool, unsigned loops)
{
    std::vector<std::atomic<unsigned>> hits(300);
    for (unsigned l = 0; l < loops; ++l) {
        const std::size_t n = 2 + (l * 7919) % 299;
        for (std::size_t i = 0; i < n; ++i)
            hits[i].store(0, std::memory_order_relaxed);
        pool.forEach(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "loop " << l << " index " << i;
    }
}

TEST(HostPool, EveryIndexRunsOnceAcrossBackToBackLoops)
{
    // Back-to-back loops are where a late worker could claim a slot of
    // the next loop with the previous loop's body.
    sim::HostPool pool;
    EXPECT_GE(pool.width(), 1u);
    EXPECT_LE(pool.width(), sim::HostPool::maxWidth);
    expectEveryIndexOnce(pool, 5000);
}

TEST(HostPool, OneCpuMaskSpawnsNoWorker)
{
    // Pin a helper thread (not the test process) to one CPU and build
    // a pool there: it must run inline, with no worker at all.
    std::thread t([] {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
        int cpu = 0;
        while (!CPU_ISSET(cpu, &mask))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one),
                  0);
        sim::HostPool pool;
        EXPECT_EQ(pool.workers(), 0u);
        EXPECT_EQ(pool.width(), 1u);
        const std::thread::id self = std::this_thread::get_id();
        bool allInline = true;
        std::vector<int> ran(64, 0);
        pool.forEach(ran.size(), [&](std::size_t i) {
            ran[i] = 1;
            allInline = allInline && std::this_thread::get_id() == self;
        });
        EXPECT_TRUE(allInline);
        EXPECT_EQ(ran, std::vector<int>(64, 1));
    });
    t.join();
}

TEST(HostPool, ForkedChildVerifiesAndExitsCleanly)
{
    // Start the shared pool in this process first.
    Rig rig(raid::RaidLevel::Raid5);
    const VerifyingDevice::Extent e{kFirst, kCount};
    ASSERT_TRUE(rig.dev.verifyExtents({&e, 1}));
    rig.corruptMedia(kFirst + 11, 5);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // The child has none of the parent's workers: it must verify
        // inline and exit without waiting for them.
        const bool ok = rig.dev.verifyExtents({&e, 1});
        std::exit(ok && rig.dev.mediaRepairs() == 1 ? 0 : 1);
    }
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    pid_t got = 0;
    while ((got = waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (got == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        FAIL() << "forked child hung";
    }
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // The parent's pool still works after the fork.
    EXPECT_TRUE(rig.dev.verifyExtents({&e, 1}));
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
}

TEST(HostPool, TwoThreadsVerifyAtOnce)
{
    // Whole simulations run on several threads at once (parallel bench
    // sweeps); each verifies through the one shared pool.
    auto verifyMany = [](std::uint64_t salt, bool &good) {
        Rig rig(raid::RaidLevel::Raid5);
        const VerifyingDevice::Extent e{kFirst, kCount};
        good = true;
        for (unsigned round = 0; round < 40; ++round) {
            rig.corruptMedia(kFirst + (salt + round * 13) % kCount,
                             round * 31);
            good = rig.dev.verifyExtents({&e, 1}) && good;
        }
        good = good && rig.dev.mediaRepairs() == 40 &&
               rig.dev.poisonedBlocks() == 0;
    };
    bool good1 = false, good2 = false;
    std::thread t1(verifyMany, 1, std::ref(good1));
    std::thread t2(verifyMany, 5, std::ref(good2));
    t1.join();
    t2.join();
    EXPECT_TRUE(good1);
    EXPECT_TRUE(good2);

    // And two threads driving one pool's loops directly.
    sim::HostPool pool;
    std::thread a([&] { expectEveryIndexOnce(pool, 500); });
    std::thread b([&] { expectEveryIndexOnce(pool, 500); });
    a.join();
    b.join();
}

} // namespace
