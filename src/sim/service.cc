#include "sim/service.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::sim {

Service::Service(EventQueue &eq_, std::string name, const Config &cfg_)
    : eq(eq_), _name(std::move(name)), cfg(cfg_), busy(cfg_.servers)
{
    if (cfg.servers == 0)
        fatal("Service %s: servers must be >= 1", _name.c_str());
    for (unsigned i = 0; i < cfg.servers; ++i)
        serverFree.push(0);
}

Tick
Service::serviceTime(std::uint64_t bytes) const
{
    Tick t = cfg.overhead;
    if (cfg.mbPerSec > 0.0)
        t += transferTicks(bytes, cfg.mbPerSec);
    return t;
}

Tick
Service::nextFree() const
{
    return std::max(serverFree.top(), eq.now());
}

void
Service::submit(std::uint64_t bytes, Event done)
{
    submitBusyTime(serviceTime(bytes), std::move(done));
    _bytesServed += bytes;
}

void
Service::submitAtRate(std::uint64_t bytes, double mb_per_sec, Event done)
{
    Tick t = cfg.overhead;
    if (mb_per_sec > 0.0)
        t += transferTicks(bytes, mb_per_sec);
    else if (cfg.mbPerSec > 0.0)
        t += transferTicks(bytes, cfg.mbPerSec);
    submitBusyTime(t, std::move(done));
    _bytesServed += bytes;
}

void
Service::submitBusyTime(Tick service_ticks, Event done)
{
    const Tick start = nextFree();
    const Tick finish = start + service_ticks;
    serverFree.pop();
    serverFree.push(finish);

    ++_requests;
    busy.addBusy(start, finish);
    _queueDelay.sample(ticksToMs(start - eq.now()));

    if (done)
        eq.schedule(finish, std::move(done));
}

void
Service::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addGauge(prefix + ".bytes",
                 [this] { return static_cast<double>(_bytesServed); });
    reg.addGauge(prefix + ".requests",
                 [this] { return static_cast<double>(_requests); });
    reg.add(prefix + ".busy", busy);
    reg.add(prefix + ".queue_delay_ms", _queueDelay);
}

void
Service::resetStats()
{
    _bytesServed = 0;
    _requests = 0;
    busy.reset();
    _queueDelay.reset();
}

Pipeline::Pipeline(EventQueue &eq_, std::vector<Stage> stages_,
                   std::uint64_t bytes, std::uint64_t chunk,
                   Event done_)
    : eq(eq_), stages(std::move(stages_)), done(std::move(done_)),
      remainingAtLast(bytes)
{
    if (stages.empty())
        panic("Pipeline with no stages");
    if (chunk == 0)
        panic("Pipeline with zero chunk size");
    for (const auto &st : stages) {
        if (!st.svc)
            panic("Pipeline with null stage");
    }
    // Feed every chunk into stage 0; the Service itself serializes.
    std::uint64_t left = bytes;
    while (left > 0) {
        const std::uint64_t this_chunk = std::min(left, chunk);
        submitChunk(0, this_chunk);
        left -= this_chunk;
    }
}

void
Pipeline::start(EventQueue &eq, const std::vector<Stage> &stages,
                std::uint64_t bytes, std::uint64_t chunk_bytes,
                Event done)
{
    if (bytes == 0)
        bytes = 1; // still pay each stage's fixed overhead
    new Pipeline(eq, stages, bytes, chunk_bytes, std::move(done));
}

void
Pipeline::submitChunk(std::size_t stage, std::uint64_t chunk_bytes)
{
    stages[stage].svc->submitAtRate(
        chunk_bytes, stages[stage].mbPerSec,
        [this, stage, chunk_bytes] { chunkLeft(stage, chunk_bytes); });
}

void
Pipeline::chunkLeft(std::size_t stage, std::uint64_t chunk_bytes)
{
    if (stage + 1 < stages.size()) {
        submitChunk(stage + 1, chunk_bytes);
        return;
    }
    remainingAtLast -= std::min(remainingAtLast, chunk_bytes);
    if (remainingAtLast == 0) {
        if (done)
            done();
        delete this;
    }
}

} // namespace raid2::sim
