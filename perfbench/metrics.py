"""Metric catalogue and derivations shared by run.py and compare.py.

Every metric has a unit, a direction ("higher" or "lower" is better)
and a clock: "sim" metrics come from the simulated clock and repeat
exactly at one seed; "host" metrics are wall-clock or memory readings
of the machine running the benchmark.
"""

import re
import statistics

# name: (unit, better, clock, workloads or None for every workload)
END_TO_END = {
    "goodput_MBps": ("MB/s", "higher", "sim", None),
    "max_rate_ops": ("ops/s", "higher", "sim", ("serve",)),
    "p50_ms": ("ms", "lower", "sim", None),
    "p99_ms": ("ms", "lower", "sim", None),
    "small_p95_ms": ("ms", "lower", "sim", None),
    "rebuild_s": ("s", "lower", "sim", ("rebuild",)),
    "degraded_goodput_MBps": ("MB/s", "higher", "sim", ("rebuild",)),
    "failed_frac": ("ratio", "lower", "sim", None),
    "run_s": ("s", "lower", "host", None),
    "setup_s": ("s", "lower", "host", None),
    "peak_rss_MB": ("MB", "lower", "host", None),
}

PER_LAYER = {
    "lfs.host_s": ("s", "lower", "host"),
    "lfs.write_amp": ("ratio", "lower", "sim"),
    "lfs.cleaner.segments_cleaned": ("count", "lower", "sim"),
    "lfs.cleaner.live_frac": ("ratio", "lower", "sim"),
    "integrity.host_s": ("s", "lower", "host"),
    "integrity.verified_blocks": ("count", "lower", "sim"),
    "integrity.detected": ("count", "lower", "sim"),
    "raid.host_s": ("s", "lower", "host"),
    "raid.full_stripe_frac": ("ratio", "higher", "sim"),
    "raid.rmw_stripes": ("count", "lower", "sim"),
    "raid.degraded_reads": ("count", "lower", "sim"),
    "sim.host_s": ("s", "lower", "host"),
    "sim.events": ("count", "lower", "sim"),
    "sim.host_ns_per_event": ("ns", "lower", "host"),
    "server.sched.fast.queue_ms": ("ms", "lower", "sim"),
    "server.sched.std.queue_ms": ("ms", "lower", "sim"),
    "server.sched.fast.admit_frac": ("ratio", "higher", "sim"),
    "server.sched.std.admit_frac": ("ratio", "higher", "sim"),
    "server.sched.std.ops_per_batch": ("ops", "higher", "sim"),
    "server.fs_cpu.util": ("ratio", "lower", "sim"),
    "server.fs_cpu.queue_ms": ("ms", "lower", "sim"),
    "disk.util_mean": ("ratio", "lower", "sim"),
    "disk.util_max": ("ratio", "lower", "sim"),
    "disk.service_ms": ("ms", "lower", "sim"),
    "disk.position_ms": ("ms", "lower", "sim"),
    "disk.queue_depth": ("count", "lower", "sim"),
    "disk.readahead_frac": ("ratio", "higher", "sim"),
    "scsi.string.util_max": ("ratio", "lower", "sim"),
    "scsi.string.queue_ms": ("ms", "lower", "sim"),
    "xbus.memory.util": ("ratio", "lower", "sim"),
    "xbus.vme.util_max": ("ratio", "lower", "sim"),
    "xbus.parity.util": ("ratio", "lower", "sim"),
    "xbus.dram.peak_MB": ("MB", "lower", "sim"),
    "host.cpu.util": ("ratio", "lower", "sim"),
    "host.memory_copy.util": ("ratio", "lower", "sim"),
    "net.ether.util": ("ratio", "lower", "sim"),
    "net.hippi.util": ("ratio", "lower", "sim"),
    "fault.recovery.stripes_per_s": ("1/s", "higher", "sim"),
    "fault.scrub.chunks_scanned": ("count", "higher", "sim"),
    "trace.overhead_s": ("s", "lower", "host"),
}

# serve: the offered rate whose latency is reported (below the knee,
# where percentiles repeat across seeds), the rate at which goodput is
# taken (capacity), and the latency SLO.
SERVE_LATENCY_RATE = 20.0
SERVE_CAPACITY_RATE = 50.0
SLO_P99_MS = 1000.0
SLO_ACHIEVED_SHARE = 0.95


def info(name):
    """(unit, better, clock) of any metric in either catalogue."""
    if name in END_TO_END:
        return END_TO_END[name][:3]
    return PER_LAYER[name]


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------
# End-to-end metrics from the per-world sim records.
# ---------------------------------------------------------------------

def _mbps(nbytes, ms):
    return nbytes / 1e6 / (ms / 1e3) if ms > 0 else 0.0


def achieved_ops(sim):
    """Completed ops per simulated second, arrivals to last completion."""
    return sim["ok"] / (sim["elapsed_ms"] / 1e3) if sim["elapsed_ms"] else 0.0


def offered_ops(sim):
    """The Poisson realisation of the nominal rate: arrivals / window."""
    return sim["arrivals"] / (sim["window_ms"] / 1e3) if sim["window_ms"] else 0.0


def meets_slo(sim):
    """The serve SLO: p99 <= 1 s, achieved >= 95% of offered, no
    failures."""
    return (sim["p99_ms"] <= SLO_P99_MS and sim["failed"] == 0
            and achieved_ops(sim) >= SLO_ACHIEVED_SHARE * offered_ops(sim))


def max_rate(worlds):
    """Highest offered rate whose row meets the SLO, read from the
    measured rows (not from the row's position in the sweep); 0 when
    none does."""
    ok = [w["offered"] for w in worlds if meets_slo(w)]
    return max(ok) if ok else 0.0


def _world_at(worlds, rate):
    for w in worlds:
        if w["offered"] == rate:
            return w
    raise KeyError("no world at %g ops/s" % rate)


def latency_source(workload, rep):
    """Where the latency percentiles come from: the serve world at
    SERVE_LATENCY_RATE, or the closed loop's worlds pooled."""
    if workload == "serve":
        return _world_at([w["sim"] for w in rep["worlds"]],
                         SERVE_LATENCY_RATE)
    return rep["pooled"]


def sim_end_to_end(workload, rep):
    """Sim-clock end-to-end metrics of one run of the binary."""
    worlds = [w["sim"] for w in rep["worlds"]]
    lat = latency_source(workload, rep)
    cap = (_world_at(worlds, SERVE_CAPACITY_RATE) if workload == "serve"
           else {"bytes": sum(w["bytes"] for w in worlds),
                 "elapsed_ms": sum(w["elapsed_ms"] for w in worlds)})
    attempted = sum(w["attempted"] for w in worlds)
    failed = sum(w["failed"] for w in worlds)
    m = {
        "goodput_MBps": _mbps(cap["bytes"], cap["elapsed_ms"]),
        "p50_ms": lat["p50_ms"],
        "p99_ms": lat["p99_ms"],
        "small_p95_ms": lat["small_p95_ms"],
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if workload == "serve":
        m["max_rate_ops"] = max_rate(worlds)
    if workload == "rebuild":
        m["rebuild_s"] = sum(w["rebuild_ms"] for w in worlds) / len(worlds) / 1e3
        m["degraded_goodput_MBps"] = _mbps(
            sum(w["degraded_bytes"] for w in worlds),
            sum(w["rebuilt_ms"] - w["fail_ms"] for w in worlds))
    return m


def sample_counts(workload, rep):
    """Sample count behind each percentile, and how many samples lie
    beyond it (the guide asks for at least ten)."""
    lat = latency_source(workload, rep)
    n, sn = int(lat["n"]), int(lat["small_n"])
    return {
        "p50_ms": (n, n // 2),
        "p99_ms": (n, n // 100),
        "small_p95_ms": (sn, sn // 20),
    }


# ---------------------------------------------------------------------
# Per-layer sim-clock metrics from two StatsRegistry snapshots.
# ---------------------------------------------------------------------

def flatten(tree, prefix=""):
    """Nested registry JSON -> {dotted name: leaf}.  A leaf is a number,
    a distribution ({count, mean, total, ...}) or a utilization
    ({busy_ms})."""
    out = {}
    for k, v in tree.items():
        name = prefix + k
        if isinstance(v, dict) and "busy_ms" not in v and "count" not in v:
            out.update(flatten(v, name + "."))
        else:
            out[name] = v
    return out


class Delta:
    """Registry differences over the measured phase."""

    def __init__(self, start, end, elapsed_ms):
        self.s, self.e, self.ms = flatten(start), flatten(end), elapsed_ms

    def count(self, name):
        if name not in self.e:
            return 0.0
        return float(self.e[name]) - float(self.s.get(name, 0.0))

    def end(self, name):
        return float(self.e.get(name, 0.0))

    def busy_ms(self, name):
        a, b = self.s.get(name, {"busy_ms": 0.0}), self.e[name]
        return b["busy_ms"] - a["busy_ms"]

    def util(self, station, servers=1):
        """Busy / (elapsed x servers): never the registry's own
        'utilization', which is not divided by the server count."""
        if self.ms <= 0 or station + ".busy" not in self.e:
            return 0.0
        return self.busy_ms(station + ".busy") / (self.ms * servers)

    def dist(self, names):
        """Pooled mean of distributions over the phase."""
        total = count = 0.0
        for n in names:
            a = self.s.get(n, {"total": 0.0, "count": 0})
            b = self.e[n]
            total += b["total"] - a["total"]
            count += b["count"] - a["count"]
        return total / count if count else 0.0

    def matching(self, pattern):
        rx = re.compile(pattern)
        return sorted(n for n in self.e if rx.fullmatch(n))


def _ratio(a, b):
    return a / b if b else 0.0


def sim_per_layer(world, sim, xbus_modules, seg_blocks):
    """Registry-derived per-layer metrics of one traced world."""
    d = Delta(world["registry_start"], world["registry_end"],
              world["registry_ms"])
    m = {}
    m["lfs.write_amp"] = _ratio(d.count("server.flushed_bytes"),
                                sim["write_bytes"])
    cleaned = d.count("lfs.cleaner.segments_cleaned")
    m["lfs.cleaner.segments_cleaned"] = cleaned
    m["lfs.cleaner.live_frac"] = _ratio(
        d.count("lfs.cleaner.blocks_copied"), cleaned * seg_blocks)
    m["integrity.verified_blocks"] = d.count("integrity.verified_blocks")
    m["integrity.detected"] = d.count("integrity.detected")

    full = d.count("raid.full_stripe_writes")
    rmw = d.count("raid.rmw_stripes")
    m["raid.full_stripe_frac"] = _ratio(
        full, full + rmw + d.count("raid.reconstruct_write_stripes"))
    m["raid.rmw_stripes"] = rmw
    m["raid.degraded_reads"] = d.count("raid.degraded_reads")

    for cls in ("fast", "std"):
        p = "server.sched." + cls
        m[p + ".queue_ms"] = d.dist([p + ".queue_delay_ms"])
        admitted = d.count(p + ".admitted")
        m[p + ".admit_frac"] = _ratio(
            admitted, admitted + d.count(p + ".rejected"))
    m["server.sched.std.ops_per_batch"] = _ratio(
        d.count("server.sched.std.batched_ops"),
        d.count("server.sched.std.batches"))
    m["server.fs_cpu.util"] = d.util("server.fs_cpu")
    m["server.fs_cpu.queue_ms"] = d.dist(["server.fs_cpu.queue_delay_ms"])

    disks = sorted({n.split(".")[1] for n in d.matching(r"disk\.\d+\.busy")},
                   key=int)
    utils = [d.util("disk." + i) for i in disks]
    m["disk.util_mean"] = sum(utils) / len(utils) if utils else 0.0
    m["disk.util_max"] = max(utils, default=0.0)
    for stat in ("service_ms", "position_ms", "queue_depth"):
        m["disk." + stat] = d.dist(["disk.%s.%s" % (i, stat) for i in disks])
    m["disk.readahead_frac"] = _ratio(
        sum(d.count("disk.%s.readahead_hits" % i) for i in disks),
        sum(d.count("disk.%s.requests" % i) for i in disks))

    strings = [n[:-len(".busy")] for n in
               d.matching(r"scsi\.cougar\d+\.string\d+\.bus\.busy")]
    m["scsi.string.util_max"] = max((d.util(s) for s in strings),
                                    default=0.0)
    m["scsi.string.queue_ms"] = d.dist([s + ".queue_delay_ms"
                                        for s in strings])

    m["xbus.memory.util"] = d.util("xbus.memory", xbus_modules)
    vme = [n[:-len(".busy")] for n in d.matching(r"xbus\.port\.vme\d+\.busy")]
    m["xbus.vme.util_max"] = max((d.util(v) for v in vme), default=0.0)
    m["xbus.parity.util"] = d.util("xbus.port.parity")
    m["xbus.dram.peak_MB"] = d.end("xbus.dram.peak_use") / 1e6

    m["host.cpu.util"] = d.util("host.cpu")
    m["host.memory_copy.util"] = d.util("host.memory_copy")
    m["net.ether.util"] = d.util("ether.wire")
    m["net.hippi.util"] = max(d.util("xbus.port.hippi_src"),
                              d.util("xbus.port.hippi_dst"))

    m["fault.recovery.stripes_per_s"] = d.end(
        "recovery.rebuild.stripes_per_sec")
    m["fault.scrub.chunks_scanned"] = d.count("scrub.chunks_scanned")
    return m
