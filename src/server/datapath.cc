#include "server/datapath.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::server {

void
PipelinedReader::start(sim::EventQueue &eq, raid::SimArray &array,
                       std::vector<Range> ranges, Config cfg,
                       std::function<void()> done)
{
    new PipelinedReader(eq, array, std::move(ranges), std::move(cfg),
                        std::move(done));
}

PipelinedReader::PipelinedReader(sim::EventQueue &eq_,
                                 raid::SimArray &array_,
                                 std::vector<Range> ranges, Config cfg_,
                                 std::function<void()> done_)
    : eq(eq_), array(array_), cfg(std::move(cfg_)), done(std::move(done_))
{
    if (cfg.depth == 0)
        sim::panic("PipelinedReader: zero depth");
    if (cfg.bufferBytes == 0)
        sim::panic("PipelinedReader: zero buffer size");

    for (const Range &r : ranges) {
        std::uint64_t pos = r.off;
        std::uint64_t left = r.len;
        while (left > 0) {
            const std::uint64_t take =
                std::min(left, cfg.bufferBytes);
            chunks.push_back(Chunk{pos, take});
            pos += take;
            left -= take;
        }
    }
    if (chunks.empty()) {
        // Nothing to read (e.g. an all-hole range).
        eq.scheduleIn(0, [this] {
            if (done)
                done();
            delete this;
        });
        return;
    }
    pump();
}

void
PipelinedReader::pump()
{
    while (inFlight < cfg.depth && nextIssue < chunks.size()) {
        const std::size_t idx = nextIssue++;
        Chunk &c = chunks[idx];
        c.issued = true;
        ++inFlight;
        auto issue = [this, idx] {
            chunks[idx].issueTick = eq.now();
            array.read(chunks[idx].off, chunks[idx].len,
                       [this, idx] { readDone(idx); });
        };
        if (cfg.buffers) {
            cfg.buffers->alloc(c.len, issue);
        } else {
            issue();
        }
    }
}

void
PipelinedReader::readDone(std::size_t idx)
{
    chunks[idx].ready = true;
    if (auto *t = eq.tracer())
        t->complete("pipeline", "prefetch", chunks[idx].issueTick,
                    eq.now(), chunks[idx].len);
    drainInOrder();
}

void
PipelinedReader::drainInOrder()
{
    // A chunk sent inline (no out stages) may make another chunk ready
    // re-entrantly; the loop below picks it up.
    if (draining)
        return;
    draining = true;
    // Deliver strictly in file order so the receiver sees a stream.
    while (nextSend < chunks.size() && chunks[nextSend].ready &&
           !chunks[nextSend].sent) {
        const std::size_t idx = nextSend++;
        chunks[idx].sent = true;
        chunks[idx].sendTick = eq.now();
        if (cfg.outStages.empty()) {
            chunkSent(idx);
            continue;
        }
        if (!setupCharged && cfg.outSetup > 0) {
            setupCharged = true;
            cfg.outStages.front().svc->submitBusyTime(cfg.outSetup,
                                                      nullptr);
        }
        sim::Pipeline::start(eq, cfg.outStages, chunks[idx].len,
                             cal::xbusChunkBytes,
                             [this, idx] { chunkSent(idx); });
    }
    draining = false;
    // Finish only after the loop: maybeFinish() deletes this.
    maybeFinish();
}

void
PipelinedReader::chunkSent(std::size_t idx)
{
    if (auto *t = eq.tracer())
        t->complete("pipeline", "send", chunks[idx].sendTick, eq.now(),
                    chunks[idx].len);
    if (cfg.buffers)
        cfg.buffers->free(chunks[idx].len);
    --inFlight;
    ++completed;
    pump();
    maybeFinish();
}

void
PipelinedReader::maybeFinish()
{
    if (draining || completed < chunks.size())
        return;
    if (done)
        done();
    delete this;
}

} // namespace raid2::server
