/**
 * @file
 * raid2_perfbench: run one workload once and print one JSON line.
 *
 *   raid2_perfbench --workload serve|ingest|rebuild [--seed N]
 *                   [--trace] [--spans PATH]
 *
 * The JSON carries, per simulated world, host set-up and run seconds,
 * the sim-clock latency/throughput results (printed with all their
 * digits so repeated runs can be compared bit for bit), and any
 * correctness problems.  With --trace it also carries StatsRegistry
 * snapshots at the start and end of the measured phase and the timed
 * replay's per-layer host seconds; spans go to --spans.  perfbench/
 * run.py turns these into the benchmark's metrics.
 *
 * Exit status: 0 when every check passed, 1 when a check failed (the
 * JSON is still printed), 2 on bad arguments.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "config/calibration.hh"
#include "lfs/lfs.hh"
#include "sim/stats.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

double
quantile(std::vector<double> v, double q)
{
    return raid2::sim::exactQuantile(v, q);
}

double
peakRssMB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB
}

/** Minimal JSON object builder ("k": v pairs, v already JSON). */
class Obj
{
  public:
    Obj &
    kv(const char *k, const std::string &v)
    {
        body += body.empty() ? "{" : ",";
        body += str(k) + ':' + v;
        return *this;
    }
    Obj &kv(const char *k, double v) { return kv(k, num(v)); }
    std::string done() const { return body.empty() ? "{}" : body + "}"; }

  private:
    std::string body;
};

std::string
worldJson(const WorldResult &w)
{
    using raid2::sim::ticksToMs;
    const PhaseResult &p = w.phase;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    // Everything here is on the simulated clock: repeated runs at one
    // seed must reproduce it bit for bit.
    Obj sim;
    sim.kv("offered", p.offeredOps)
        .kv("events", count(w.simEvents))
        .kv("attempted", count(p.attempted))
        .kv("ok", count(p.ok))
        .kv("failed", count(p.failed))
        .kv("rejects", count(p.rejects))
        .kv("arrivals", count(p.arrivals))
        .kv("bytes", count(p.bytes))
        .kv("write_bytes", count(p.writeBytes))
        .kv("elapsed_ms", ticksToMs(p.end - p.start))
        .kv("window_ms", ticksToMs(p.window))
        .kv("n", count(p.allMs.size()))
        .kv("p50_ms", quantile(p.allMs, 0.50))
        .kv("p99_ms", quantile(p.allMs, 0.99))
        .kv("small_n", count(p.smallMs.size()))
        .kv("small_p95_ms", quantile(p.smallMs, 0.95));
    if (p.failedAt) {
        sim.kv("fail_ms", ticksToMs(p.failedAt - p.start))
            .kv("rebuilt_ms",
                p.rebuiltAt ? ticksToMs(p.rebuiltAt - p.start) : 0.0)
            .kv("rebuild_ms", p.rebuildMs)
            .kv("degraded_bytes", count(p.degradedBytes))
            .kv("data_loss_events", count(p.dataLossEvents));
    }

    std::string probs = "[";
    for (const std::string &s : w.problems) {
        if (probs.size() > 1)
            probs += ',';
        probs += str(s);
    }
    Obj out;
    out.kv("setup_s", w.setupS)
        .kv("run_s", w.runS)
        .kv("sim", sim.done())
        .kv("problems", probs + "]");
    if (!w.registryStart.empty()) {
        const ReplayTimes &r = w.replay;
        out.kv("registry_ms", w.registryMs)
            .kv("registry_start", w.registryStart)
            .kv("registry_end", w.registryEnd)
            .kv("replay", Obj()
                              .kv("lfs_s", r.lfs)
                              .kv("integrity_s", r.integrity)
                              .kv("raid_s", r.raid)
                              .kv("total_s", r.total)
                              .kv("ops", count(r.ops))
                              .done());
    }
    return out.done();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: raid2_perfbench --workload serve|ingest|rebuild "
                 "[--seed N] [--trace] [--spans PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            if (!parseWorkload(argv[++i], opt.workload))
                return usage();
            haveWorkload = true;
        } else if (a == "--seed" && hasValue) {
            char *end = nullptr;
            opt.seed = std::strtoull(argv[++i], &end, 10);
            if (!end || *end)
                return usage();
        } else if (a == "--trace") {
            opt.traced = true;
        } else if (a == "--spans" && hasValue) {
            opt.spansPath = argv[++i];
        } else {
            return usage();
        }
    }
    if (!haveWorkload)
        return usage();

    const std::vector<WorldResult> worlds = runWorkload(opt);

    // Latency percentiles pooled over every world (closed loops run
    // several independent worlds of one spec).
    std::vector<double> all, small;
    for (const WorldResult &w : worlds) {
        all.insert(all.end(), w.phase.allMs.begin(), w.phase.allMs.end());
        small.insert(small.end(), w.phase.smallMs.begin(),
                     w.phase.smallMs.end());
    }
    const std::string pooled =
        Obj()
            .kv("n", static_cast<double>(all.size()))
            .kv("p50_ms", quantile(all, 0.50))
            .kv("p99_ms", quantile(all, 0.99))
            .kv("small_n", static_cast<double>(small.size()))
            .kv("small_p95_ms", quantile(small, 0.95))
            .done();

    bool ok = true;
    std::string ws = "[";
    for (const WorldResult &w : worlds) {
        ok = ok && w.problems.empty();
        if (ws.size() > 1)
            ws += ',';
        ws += worldJson(w);
    }
    std::printf("{\"traced\":%s,\"seed\":%llu,\"peak_rss_MB\":%s,"
                "\"xbus_memory_modules\":%u,\"seg_blocks\":%u,"
                "\"pooled\":%s,\"worlds\":%s]}\n",
                opt.traced ? "true" : "false",
                static_cast<unsigned long long>(opt.seed),
                num(peakRssMB()).c_str(), raid2::cal::xbusMemModules,
                raid2::lfs::Lfs::Params{}.segBlocks, pooled.c_str(),
                ws.c_str());
    return ok ? 0 : 1;
}
