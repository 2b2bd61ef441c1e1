/**
 * @file
 * Trace facility tests: text-format parse/save round trips, input
 * validation, deterministic synthesis, and replay correctness against
 * the server's functional file system (both paced and closed-loop,
 * fast path and standard mode).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "workload/trace.hh"

namespace {

using namespace raid2;
using workload::Trace;
using workload::TraceRecord;
using workload::TraceReplayer;

TEST(Trace, ParseAndSaveRoundTrip)
{
    const std::string text = R"(# comment
0 C /a/f
1.5 W /a/f 0 1000
3 R /a/f 0 1000   # trailing comment
10 U /a/f
)";
    std::istringstream in(text);
    Trace t = Trace::parse(in);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t.records()[0].kind, TraceRecord::Kind::Create);
    EXPECT_EQ(t.records()[1].when, sim::msToTicks(1.5));
    EXPECT_EQ(t.records()[1].bytes, 1000u);
    EXPECT_EQ(t.records()[2].kind, TraceRecord::Kind::Read);
    EXPECT_EQ(t.records()[3].kind, TraceRecord::Kind::Unlink);
    EXPECT_EQ(t.totalBytes(), 2000u);

    std::ostringstream out;
    t.save(out);
    std::istringstream in2(out.str());
    Trace t2 = Trace::parse(in2);
    ASSERT_EQ(t2.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t2.records()[i].kind, t.records()[i].kind);
        EXPECT_EQ(t2.records()[i].path, t.records()[i].path);
        EXPECT_EQ(t2.records()[i].offset, t.records()[i].offset);
        EXPECT_EQ(t2.records()[i].bytes, t.records()[i].bytes);
    }
}

TEST(Trace, ParseRejectsBadInput)
{
    auto try_parse = [](const std::string &text) {
        std::istringstream in(text);
        Trace::parse(in);
    };
    EXPECT_THROW(try_parse("0 X /f\n"), std::runtime_error);
    EXPECT_THROW(try_parse("0 R relative 0 10\n"), std::runtime_error);
    EXPECT_THROW(try_parse("0 R /f\n"), std::runtime_error); // no size
    EXPECT_THROW(try_parse("5 C /a\n1 C /b\n"), std::runtime_error);
}

TEST(Trace, SynthesisIsDeterministicAndOrdered)
{
    const auto a = Trace::synthesizeOffice(4, sim::secToTicks(20), 7);
    const auto b = Trace::synthesizeOffice(4, sim::secToTicks(20), 7);
    const auto c = Trace::synthesizeOffice(4, sim::secToTicks(20), 8);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.records()[i].path, b.records()[i].path);
        EXPECT_EQ(a.records()[i].when, b.records()[i].when);
        if (i > 0) {
            EXPECT_GE(a.records()[i].when, a.records()[i - 1].when);
        }
    }
    EXPECT_NE(a.size(), c.size());
}

TEST(Trace, SynthesisHasTheOfficeShape)
{
    const auto t =
        Trace::synthesizeOffice(8, sim::secToTicks(60), 42);
    std::uint64_t reads = 0, writes = 0, creates = 0, unlinks = 0;
    for (const auto &r : t.records()) {
        switch (r.kind) {
          case TraceRecord::Kind::Read: ++reads; break;
          case TraceRecord::Kind::Write: ++writes; break;
          case TraceRecord::Kind::Create: ++creates; break;
          case TraceRecord::Kind::Unlink: ++unlinks; break;
        }
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, reads / 4); // writes are bursty but present
    EXPECT_GT(creates, 0u);
    EXPECT_GT(unlinks, 0u);
}

struct ReplayFixture : public ::testing::Test
{
    sim::EventQueue eq;
    std::unique_ptr<server::Raid2Server> srv;

    void
    SetUp() override
    {
        server::Raid2Server::Config cfg;
        cfg.topo.disksPerString = 2;
        cfg.fsDeviceBytes = 64ull * 1024 * 1024;
        srv = std::make_unique<server::Raid2Server>(eq, "s", cfg);
    }
};

TEST_F(ReplayFixture, ReplayBuildsTheNamespace)
{
    Trace t;
    t.add({sim::msToTicks(0), TraceRecord::Kind::Create, "/u0/a", 0, 0});
    t.add({sim::msToTicks(1), TraceRecord::Kind::Write, "/u0/a", 0,
           50000});
    t.add({sim::msToTicks(2), TraceRecord::Kind::Write, "/u0/a", 50000,
           50000});
    t.add({sim::msToTicks(3), TraceRecord::Kind::Read, "/u0/a", 0,
           100000});
    t.add({sim::msToTicks(4), TraceRecord::Kind::Create, "/u1/b", 0, 0});
    t.add({sim::msToTicks(5), TraceRecord::Kind::Unlink, "/u1/b", 0, 0});

    TraceReplayer::Config rcfg;
    const auto res = TraceReplayer::replay(eq, *srv, t, rcfg);
    EXPECT_EQ(res.ops, 6u);
    EXPECT_EQ(res.writeBytes, 100000u);
    EXPECT_EQ(res.readBytes, 100000u);
    EXPECT_EQ(res.creates, 2u);
    EXPECT_EQ(res.unlinks, 1u);

    EXPECT_EQ(srv->fs().stat("/u0/a").size, 100000u);
    EXPECT_FALSE(srv->fs().exists("/u1/b"));
    EXPECT_TRUE(srv->fs().fsck().ok);
}

TEST_F(ReplayFixture, PacedReplayRespectsTimestamps)
{
    Trace t;
    t.add({sim::msToTicks(0), TraceRecord::Kind::Create, "/f", 0, 0});
    t.add({sim::secToTicks(2), TraceRecord::Kind::Write, "/f", 0, 4096});
    TraceReplayer::Config rcfg;
    rcfg.paced = true;
    const auto res = TraceReplayer::replay(eq, *srv, t, rcfg);
    EXPECT_GE(res.elapsed, sim::secToTicks(2));
}

TEST_F(ReplayFixture, ClosedLoopIsFasterThanPaced)
{
    const auto t =
        Trace::synthesizeOffice(2, sim::secToTicks(10), 3);
    TraceReplayer::Config paced;
    TraceReplayer::Config rushed;
    rushed.paced = false;
    const auto r1 = TraceReplayer::replay(eq, *srv, t, paced);

    sim::EventQueue eq2;
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    server::Raid2Server srv2(eq2, "s2", cfg);
    const auto r2 = TraceReplayer::replay(eq2, srv2, t, rushed);

    EXPECT_LT(r2.elapsed, r1.elapsed);
    EXPECT_EQ(r1.ops, r2.ops);
}

TEST_F(ReplayFixture, StandardModeUsesEthernet)
{
    Trace t;
    t.add({0, TraceRecord::Kind::Create, "/f", 0, 0});
    t.add({sim::msToTicks(1), TraceRecord::Kind::Write, "/f", 0, 8192});
    // Leave room for the asynchronous write to land before reading.
    t.add({sim::msToTicks(50), TraceRecord::Kind::Read, "/f", 0, 8192});
    TraceReplayer::Config rcfg;
    rcfg.standardMode = true;
    TraceReplayer::replay(eq, *srv, t, rcfg);
    EXPECT_GT(srv->ethernet().packets(), 0u);
}

TEST_F(ReplayFixture, SynthesizedOfficeDayRunsClean)
{
    const auto t =
        Trace::synthesizeOffice(6, sim::secToTicks(30), 11);
    TraceReplayer::Config rcfg;
    const auto res = TraceReplayer::replay(eq, *srv, t, rcfg);
    EXPECT_EQ(res.ops, t.size());
    EXPECT_GT(res.latencyMs.count(), 0u);
    EXPECT_TRUE(srv->fs().fsck().ok);
}

} // namespace
