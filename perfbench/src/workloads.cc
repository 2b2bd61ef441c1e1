#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "bench_util.hh"
#include "disk/disk_profile.hh"
#include "fault/fault_plan.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "replay.hh"
#include "server/file_protocol.hh"
#include "server/request_scheduler.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"

namespace perfbench {

namespace {

using namespace raid2;
using server::RaidFileClient;
using server::RequestScheduler;
using server::Status;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileBytes = 2 * sim::MiB;
constexpr std::uint64_t kBulkBytes = 512 * sim::KiB; // HIPPI fast path
constexpr std::uint64_t kSmallBytes = 8 * sim::KiB;  // Ethernet standard
constexpr double kSmallFraction = 0.25;
constexpr unsigned kMaxRetries = 10000;
constexpr sim::Tick kBackoff = sim::msToTicks(1.0);
constexpr sim::Tick kBackoffMax = sim::msToTicks(50.0);
constexpr sim::Tick kOpenStagger = sim::usToTicks(100);
/** rebuild: the member disk that dies, and when (after phase start). */
constexpr unsigned kFailedDisk = 3;
constexpr sim::Tick kFailAfter = sim::secToTicks(2.0);
/** serve: the offered rates (ops/s), one world each. */
constexpr double kServeRates[] = {20, 30, 40, 50};

/** What one workload builds and offers. */
struct Spec
{
    unsigned files = 0;
    unsigned sessions = 0;
    bool openLoop = false;
    double readFraction = 1.0;
    std::uint64_t opsPerSession = 0; // closed loop
    /** Open loop: expected arrivals per offered rate; each rate runs
     *  for arrivalsPerRate / rate simulated seconds, so every rate
     *  yields the same number of latency samples. */
    double arrivalsPerRate = 0.0;
    std::uint64_t deviceBytes = 0;   // 0 = the server default
    bool reliability = false;
    /** Host file cache holds every file from the start (steady state
     *  rather than a cold-cache transient). */
    bool warmHostCache = false;
    /** Closed loop: independent worlds per run (sub-seeds), pooled. */
    unsigned worlds = 1;
};

Spec
specFor(Workload w)
{
    Spec s;
    switch (w) {
      case Workload::Serve:
        // 64 MB of files: twice the 32 MB XBUS DRAM, and exactly the
        // 64 MB host file cache.
        s.files = 32;
        s.sessions = 256;
        s.openLoop = true;
        s.readFraction = 1.0;
        s.arrivalsPerRate = 2400.0;
        s.warmHostCache = true;
        break;
      case Workload::Ingest:
        // 32 MB live on a 64 MB device: the log wraps, the cleaner
        // runs.
        s.files = 16;
        s.sessions = 16;
        s.readFraction = 0.0;
        s.opsPerSession = 128;
        s.deviceBytes = 64 * sim::MiB;
        break;
      case Workload::Rebuild:
        s.files = 16;
        s.sessions = 16;
        s.readFraction = 0.8;
        s.opsPerSession = 128;
        s.deviceBytes = 64 * sim::MiB;
        s.reliability = true;
        s.worlds = 3;
        break;
    }
    return s;
}

/** IBM 0661 at 1/40 of its cylinders (as bench/reliability_mttdl):
 *  a whole rebuild fits inside one run. */
const disk::DiskProfile &
scaledProfile()
{
    static const disk::DiskProfile p = [] {
        disk::DiskProfile s = disk::ibm0661();
        s.name = "ibm0661-scaled";
        s.cylinders /= 40;
        return s;
    }();
    return p;
}

server::Raid2Server::Config
worldConfig(const Spec &spec)
{
    auto cfg = bench::lfsConfig();
    cfg.withIntegrity = true;
    if (spec.deviceBytes)
        cfg.fsDeviceBytes = spec.deviceBytes;
    if (spec.reliability) {
        cfg.withReliability = true;
        cfg.topo.profile = &scaledProfile();
        cfg.recovery.spares = 1;
    }
    return cfg;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
filePath(unsigned f)
{
    return "/f" + std::to_string(f);
}

/** Seeded initial contents of file @p f (never the write payload). */
std::vector<std::uint8_t>
populationBytes(std::uint64_t seed, unsigned f)
{
    std::vector<std::uint8_t> buf(kFileBytes);
    sim::Random rng(seed * 0x9e3779b97f4a7c15ull + f + 1);
    for (std::size_t i = 0; i < buf.size(); i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(buf.data() + i, &w, 8);
    }
    return buf;
}

/** Records the functional op stream of a traced run. */
struct Recorder
{
    std::vector<StreamOp> ops;
    /** rebuild: the functional twin whose disk states are mirrored
     *  into the stream as FailDisk/RestoreDisk markers. */
    const raid::RaidArray *functional = nullptr;
    std::vector<bool> failed;

    void
    syncDiskState()
    {
        if (!functional)
            return;
        failed.resize(functional->numDisks(), false);
        for (unsigned d = 0; d < failed.size(); ++d) {
            if (functional->isFailed(d) == failed[d])
                continue;
            failed[d] = !failed[d];
            StreamOp m;
            m.kind = failed[d] ? StreamOp::Kind::FailDisk
                               : StreamOp::Kind::RestoreDisk;
            m.disk = d;
            ops.push_back(std::move(m));
        }
    }

    void
    push(StreamOp op)
    {
        syncDiskState();
        ops.push_back(std::move(op));
    }
};

/** One completed write: enough to replay it into the shadow. */
struct WriteRec
{
    lfs::InodeNum ino;
    std::uint64_t off;
    std::uint64_t len;
};

/**
 * The client fleet: event-driven sessions over one scheduler.  Open
 * loop: per-session Poisson arrivals at an aggregate offered rate for
 * a fixed window.  Closed loop: each session keeps one op outstanding
 * for a fixed op count.  Busy/Throttled are retried with jittered
 * exponential backoff; latency runs from when the op was due to its
 * final completion, so queueing and retries both count.
 */
class Fleet
{
  public:
    Fleet(sim::EventQueue &eq, server::Raid2Server &srv,
          RequestScheduler &sched, const Spec &spec, double offered,
          std::uint64_t seed, const std::vector<lfs::InodeNum> &inos,
          PhaseResult &res, Recorder *rec)
        : eq(eq), spec(spec), offered(offered), inos(inos), res(res),
          rec(rec), ring(eq, "fleet.ring")
    {
        sessions.resize(spec.sessions);
        for (unsigned i = 0; i < spec.sessions; ++i) {
            Session &s = sessions[i];
            s.index = i;
            s.rng = sim::Random(seed * 0xd1b54a32d192ed03ull + i);
            s.nic = std::make_unique<net::ClientModel>(
                eq, "fleet.c" + std::to_string(i));
            RaidFileClient::Config ccfg;
            ccfg.scheduler = &sched;
            s.lib = std::make_unique<RaidFileClient>(eq, srv, *s.nic,
                                                     ring, ccfg);
        }
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Schedule every session's open from now. */
    void
    start()
    {
        res.start = eq.now();
        deadline = res.start + res.window;
        for (Session &s : sessions) {
            ++pending;
            eq.scheduleIn(kOpenStagger * s.index,
                          [this, &s] { open(s, kBackoff); });
        }
    }

    bool idle() const { return pending == 0; }
    const std::vector<WriteRec> &writes() const { return _writes; }

  private:
    struct Session
    {
        unsigned index = 0;
        sim::Random rng{0};
        std::unique_ptr<net::ClientModel> nic;
        std::unique_ptr<RaidFileClient> lib;
        RaidFileClient::Handle handle = RaidFileClient::invalidHandle;
        std::uint64_t issued = 0;
    };

    struct Op
    {
        bool read = true;
        std::uint64_t off = 0;
        std::uint64_t len = 0;
        sim::Tick due = 0;
    };

    lfs::InodeNum inoOf(const Session &s) const
    {
        return inos[s.index % spec.files];
    }

    Op
    draw(Session &s)
    {
        Op op;
        op.read = s.rng.chance(spec.readFraction);
        op.len = s.rng.chance(kSmallFraction) ? kSmallBytes : kBulkBytes;
        op.off = s.rng.below(kFileBytes / op.len) * op.len;
        op.due = eq.now();
        return op;
    }

    sim::Tick
    backoffWait(Session &s, sim::Tick &backoff)
    {
        const sim::Tick wait = static_cast<sim::Tick>(
            static_cast<double>(backoff) * (0.5 + s.rng.unit()));
        backoff = std::min(backoff * 2, kBackoffMax);
        return wait;
    }

    static bool
    retryable(Status st)
    {
        return st == Status::Busy || st == Status::Throttled;
    }

    void
    open(Session &s, sim::Tick backoff)
    {
        s.lib->raidOpen(
            filePath(s.index % spec.files), /*create=*/false,
            [this, &s, backoff](const RaidFileClient::Result &r) {
                if (retryable(r.status)) {
                    sim::Tick next = backoff;
                    const sim::Tick wait = backoffWait(s, next);
                    eq.scheduleIn(wait, [this, &s, next] { open(s, next); });
                    return;
                }
                --pending;
                if (!r.ok()) {
                    ++res.failed; // the session never runs
                    return;
                }
                s.handle = r.handle;
                if (spec.openLoop)
                    scheduleArrival(s);
                else
                    closedNext(s);
            });
    }

    void
    issue(Session &s, const Op &op, unsigned attempt, sim::Tick backoff)
    {
        auto done = [this, &s, op, attempt,
                     backoff](const RaidFileClient::Result &r) {
            if (retryable(r.status)) {
                ++res.rejects;
                if (attempt + 1 >= kMaxRetries) {
                    ++res.failed;
                    finish(s);
                    return;
                }
                sim::Tick next = backoff;
                const sim::Tick wait = backoffWait(s, next);
                eq.scheduleIn(wait, [this, &s, op, attempt, next] {
                                  issue(s, op, attempt + 1, next);
                              });
                return;
            }
            if (!r.ok()) {
                // Nothing is injected, so DataCorrupt (or anything
                // else) is a failure, never a retry.
                ++res.failed;
                finish(s);
                return;
            }
            const double ms = sim::ticksToMs(eq.now() - op.due);
            ++res.ok;
            res.bytes += r.bytes;
            res.allMs.push_back(ms);
            if (r.cls == RequestScheduler::ServiceClass::Standard)
                res.smallMs.push_back(ms);
            if (res.failedAt && !res.rebuiltAt && eq.now() >= res.failedAt)
                res.degradedBytes += r.bytes;
            if (op.read) {
                if (rec) {
                    StreamOp rd;
                    rd.kind = StreamOp::Kind::Read;
                    rd.ino = inoOf(s);
                    rd.off = op.off;
                    rd.len = op.len;
                    rec->push(std::move(rd));
                }
            } else {
                res.writeBytes += r.bytes;
                _writes.push_back(WriteRec{inoOf(s), op.off, op.len});
            }
            finish(s);
        };
        if (op.read)
            s.lib->raidPRead(s.handle, op.off, op.len, std::move(done));
        else
            s.lib->raidPWrite(s.handle, op.off, op.len, std::move(done));
    }

    void
    start(Session &s, const Op &op)
    {
        ++res.attempted;
        issue(s, op, 0, kBackoff);
    }

    void
    finish(Session &s)
    {
        --pending;
        if (!spec.openLoop)
            closedNext(s);
    }

    void
    closedNext(Session &s)
    {
        if (s.issued >= spec.opsPerSession)
            return;
        ++s.issued;
        ++pending;
        start(s, draw(s));
    }

    void
    scheduleArrival(Session &s)
    {
        const double meanGapS =
            static_cast<double>(spec.sessions) / offered;
        const sim::Tick at =
            eq.now() + sim::secToTicks(s.rng.exponential(meanGapS));
        if (at > deadline)
            return;
        ++pending;
        eq.schedule(at, [this, &s] {
            ++res.arrivals;
            start(s, draw(s));
            scheduleArrival(s);
        });
    }

    sim::EventQueue &eq;
    const Spec &spec;
    double offered;
    const std::vector<lfs::InodeNum> &inos;
    PhaseResult &res;
    Recorder *rec;

    net::UltranetFabric ring;
    std::vector<Session> sessions;
    std::vector<WriteRec> _writes;
    sim::Tick deadline = 0;
    std::uint64_t pending = 0;
};

/** Geometry of the server's functional chain (mirrors Raid2Server). */
ChainConfig
chainOf(server::Raid2Server &srv)
{
    ChainConfig c;
    c.layout = srv.config().layout;
    c.layout.numDisks = srv.array().layout().numDisks();
    c.diskBytes = srv.functionalArray().diskData(0).size();
    c.deviceBytes = srv.config().fsDeviceBytes;
    c.fsParams = srv.config().fsParams;
    return c;
}

/** One-line registry snapshot. */
std::string
snapshot(const sim::StatsRegistry &reg)
{
    std::ostringstream os;
    reg.toJson(os, /*pretty=*/false);
    return os.str();
}

/** Compare every file with the shadow; append problems. */
void
checkFiles(lfs::Lfs &fs, const std::vector<std::vector<std::uint8_t>> &shadow,
           const std::string &where, std::vector<std::string> &problems)
{
    std::vector<std::uint8_t> buf(kFileBytes);
    for (unsigned f = 0; f < shadow.size(); ++f) {
        const lfs::InodeNum ino = fs.lookup(filePath(f));
        const std::uint64_t size = fs.statIno(ino).size;
        const std::uint64_t n = fs.read(ino, 0, buf);
        if (size != kFileBytes || n != kFileBytes) {
            problems.push_back(where + ": " + filePath(f) + " has " +
                               std::to_string(size) + " bytes");
            continue;
        }
        const auto mm = std::mismatch(buf.begin(), buf.end(),
                                      shadow[f].begin());
        if (mm.first != buf.end()) {
            problems.push_back(
                where + ": " + filePath(f) + " differs from the shadow at "
                "byte " + std::to_string(mm.first - buf.begin()));
        }
    }
}

WorldResult
runWorld(const Spec &spec, const RunOptions &opt, std::uint32_t world,
         double offered, std::vector<Span> &spans)
{
    WorldResult out;
    PhaseResult &res = out.phase;
    res.offeredOps = offered;
    if (spec.openLoop)
        res.window = sim::secToTicks(spec.arrivalsPerRate / offered);
    const std::uint64_t seed = opt.seed * 131 + world;

    std::vector<std::vector<std::uint8_t>> shadow(spec.files);
    for (unsigned f = 0; f < spec.files; ++f)
        shadow[f] = populationBytes(seed, f);
    // Population = create + write every file, checkpoint, sync.  The
    // same steps run on the server and on the replay chain.
    auto populate = [&](lfs::Lfs &fs) {
        for (unsigned f = 0; f < spec.files; ++f)
            fs.write(fs.create(filePath(f)), 0, shadow[f]);
        fs.checkpoint();
    };

    Recorder rec;
    ChainConfig chain;
    {
        // ---- set-up: build the server, populate, drain the flushes.
        const auto setupT0 = Clock::now();
        sim::EventQueue eq;
        server::Raid2Server srv(eq, "srv", worldConfig(spec));
        RequestScheduler sched(eq, srv);
        populate(srv.fs());
        bool synced = false;
        srv.fsSync([&synced] { synced = true; });
        eq.runUntilDone([&synced] { return synced; });
        std::vector<lfs::InodeNum> inos;
        for (unsigned f = 0; f < spec.files; ++f) {
            inos.push_back(srv.fs().lookup(filePath(f)));
            if (spec.warmHostCache)
                srv.hostCache().insert(inos.back(), kFileBytes);
        }
        out.setupS = secondsSince(setupT0);

        sim::StatsRegistry reg;
        if (opt.traced) {
            srv.registerStats(reg);
            sched.registerStats(reg);
            out.registryStart = snapshot(reg);
            if (spec.reliability)
                rec.functional = &srv.functionalArray();
            srv.setFsOpObserver([&rec](const server::Raid2Server::FsOp &o) {
                StreamOp op;
                using K = server::Raid2Server::FsOp::Kind;
                op.kind = o.kind == K::Create  ? StreamOp::Kind::Create
                          : o.kind == K::Write ? StreamOp::Kind::Write
                                               : StreamOp::Kind::Sync;
                op.path = o.path;
                op.ino = o.ino;
                op.off = o.off;
                op.len = o.len;
                rec.push(std::move(op));
            });
        }

        // ---- measured phase.
        const auto runT0 = Clock::now();
        const std::uint64_t events0 = eq.executed();
        Fleet fleet(eq, srv, sched, spec, offered, seed, inos, res,
                    opt.traced ? &rec : nullptr);
        if (spec.reliability) {
            res.failedAt = eq.now() + kFailAfter;
            fault::FaultPlan plan;
            plan.diskFail(res.failedAt, kFailedDisk);
            srv.faults().setPlan(std::move(plan));
            srv.faults().start();
            srv.scrubber().start();
            srv.recovery().onRebuildDone([&](unsigned, double mttrMs) {
                res.rebuiltAt = eq.now();
                res.rebuildMs = mttrMs;
            });
        }
        fleet.start();
        eq.runUntilDone([&] {
            return fleet.idle() &&
                   (!spec.reliability ||
                    srv.recovery().rebuildsCompleted() > 0);
        });
        res.end = eq.now();
        if (spec.reliability) {
            srv.scrubber().stop();
            eq.run();
        }
        out.runS = secondsSince(runT0);
        out.simEvents = eq.executed() - events0;

        // ---- checks (untimed).
        if (opt.traced) {
            rec.syncDiskState();
            out.registryEnd = snapshot(reg);
            out.registryMs = sim::ticksToMs(eq.now() - res.start);
            srv.setFsOpObserver(nullptr);
        }
        if (!fleet.idle())
            out.problems.push_back("event queue drained with ops "
                                   "outstanding");
        for (const WriteRec &w : fleet.writes()) {
            const auto f =
                std::find(inos.begin(), inos.end(), w.ino) - inos.begin();
            writePayload(w.ino, w.off,
                         std::span(shadow[f]).subspan(w.off, w.len));
        }
        checkFiles(srv.fs(), shadow, "server", out.problems);
        const lfs::FsckReport fsck = srv.fs().fsck();
        for (const std::string &p : fsck.problems())
            out.problems.push_back("fsck: " + p);
        if (!fsck.ok && fsck.issues.empty())
            out.problems.push_back("fsck: not ok");
        const auto &vd = srv.integrity();
        if (vd.detected() || vd.unrepairableReads() || srv.corruptReads())
            out.problems.push_back(
                "integrity: " + std::to_string(vd.detected()) +
                " detected, " + std::to_string(vd.unrepairableReads()) +
                " unrepairable reads with nothing injected");
        if (spec.reliability) {
            res.dataLossEvents = srv.faults().dataLossEvents();
            if (res.dataLossEvents)
                out.problems.push_back(
                    "fault: " + std::to_string(res.dataLossEvents) +
                    " data-loss events");
            if (srv.recovery().rebuildsCompleted() != 1 ||
                srv.functionalArray().failedCount() != 0)
                out.problems.push_back("rebuild did not complete");
            if (!srv.functionalArray().redundancyConsistent())
                out.problems.push_back(
                    "functional array redundancy inconsistent");
        }
        if (opt.traced) {
            const auto streamWrites = std::count_if(
                rec.ops.begin(), rec.ops.end(), [](const StreamOp &o) {
                    return o.kind == StreamOp::Kind::Write;
                });
            if (static_cast<std::size_t>(streamWrites) !=
                fleet.writes().size())
                out.problems.push_back(
                    "exactly-once: " + std::to_string(streamWrites) +
                    " functional writes for " +
                    std::to_string(fleet.writes().size()) +
                    " acknowledged writes");
            chain = chainOf(srv);
        }
    }

    if (opt.traced) {
        try {
            out.replay = replayStream(
                chain,
                [&](lfs::Lfs &fs) {
                    populate(fs);
                    fs.sync();
                },
                rec.ops,
                [&](lfs::Lfs &fs) {
                    checkFiles(fs, shadow, "replay", out.problems);
                },
                world, spans);
        } catch (const std::exception &e) {
            out.problems.push_back(std::string("replay: ") + e.what());
        }
    }
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "serve")
        out = Workload::Serve;
    else if (name == "ingest")
        out = Workload::Ingest;
    else if (name == "rebuild")
        out = Workload::Rebuild;
    else
        return false;
    return true;
}

void
writePayload(lfs::InodeNum ino, std::uint64_t off,
             std::span<std::uint8_t> out)
{
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>((off + i) * 131 + ino);
}

std::vector<WorldResult>
runWorkload(const RunOptions &opt)
{
    const Spec spec = specFor(opt.workload);
    std::vector<Span> spans;
    std::vector<WorldResult> worlds;
    if (spec.openLoop) {
        std::uint32_t w = 0;
        for (double rate : kServeRates)
            worlds.push_back(runWorld(spec, opt, w++, rate, spans));
    } else {
        for (std::uint32_t w = 0; w < spec.worlds; ++w)
            worlds.push_back(runWorld(spec, opt, w, 0.0, spans));
    }
    if (opt.traced && !opt.spansPath.empty() &&
        !writeSpans(opt.spansPath, spans))
        worlds.front().problems.push_back("cannot write " +
                                          opt.spansPath);
    return worlds;
}

} // namespace perfbench
