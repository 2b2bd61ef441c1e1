#include "server/file_protocol.hh"

#include <algorithm>
#include <utility>

#include "config/calibration.hh"
#include "sim/logging.hh"

namespace raid2::server {

namespace {

using OpKind = RequestScheduler::OpKind;

RequestScheduler &
requireScheduler(const RaidFileClient::Config &cfg)
{
    if (!cfg.scheduler)
        sim::fatal("RaidFileClient: no RequestScheduler configured");
    return *cfg.scheduler;
}

} // namespace

RaidFileClient::RaidFileClient(sim::EventQueue &eq_, Raid2Server &server_,
                               net::ClientModel &client_,
                               net::UltranetFabric &net_,
                               const Config &cfg)
    : eq(eq_), server(server_), client(client_), net(net_),
      sched(requireScheduler(cfg)), pollingDriver(cfg.pollingDriver),
      _session(sched.allocSession())
{
}

void
RaidFileClient::completeLocal(Result res, Completion done)
{
    eq.scheduleIn(cal::clientCommandRtt,
                  [this, res, done = std::move(done)]() mutable {
                      res.completed = eq.now();
                      if (done)
                          done(res);
                  });
}

void
RaidFileClient::submit(RequestScheduler::Request r)
{
    eq.scheduleIn(cal::clientCommandRtt,
                  [this, r = std::move(r)]() mutable {
                      sched.submit(std::move(r));
                  });
}

std::vector<sim::Stage>
RaidFileClient::readOutStages()
{
    return {sim::Stage(server.board().hippiSrcPort()),
            sim::Stage(net.ring()), client.rxStage()};
}

std::vector<sim::Stage>
RaidFileClient::writeInStages()
{
    return {client.txStage(), sim::Stage(net.ring()),
            sim::Stage(server.board().hippiDstPort())};
}

void
RaidFileClient::raidOpen(const std::string &path, bool create,
                         Completion done)
{
    client.chargeRequestCost();
    RequestScheduler::Request r;
    r.session = _session;
    r.kind = OpKind::Open;
    r.path = path;
    r.create = create;

    Result res;
    res.issued = eq.now();
    res.cls = sched.classify(r);
    r.done = [this, res, done = std::move(done)](
                 Status st, lfs::InodeNum ino) mutable {
        res.status = st;
        res.completed = eq.now();
        if (st == Status::Ok) {
            const Handle h = nextHandle++;
            open[h] = OpenFile{ino, 0};
            res.handle = h;
        }
        if (done)
            done(res);
    };
    submit(std::move(r));
}

void
RaidFileClient::issue(OpKind kind, Handle h,
                      std::optional<std::uint64_t> at, std::uint64_t len,
                      Completion done)
{
    client.chargeRequestCost();
    RequestScheduler::Request r;
    r.session = _session;
    r.kind = kind;
    r.len = len;

    Result res;
    res.issued = eq.now();
    const auto it = open.find(h);
    if (it == open.end()) {
        res.status = Status::BadHandle;
        res.cls = sched.classify(r);
        completeLocal(res, std::move(done));
        return;
    }

    r.ino = it->second.ino;
    r.off = at.value_or(it->second.pos);
    if (kind == OpKind::Read) {
        const std::uint64_t size = server.fs().statIno(r.ino).size;
        r.len = r.off >= size ? 0 : std::min(len, size - r.off);
        r.outStages = readOutStages();
        if (pollingDriver) {
            // The host busy-waits while the source board transmits.
            r.hostBusyTicks =
                sim::transferTicks(r.len, cal::clientReadMBs);
        }
    } else {
        r.inStages = writeInStages();
    }
    res.cls = sched.classify(r);
    if (kind == OpKind::Read && r.len == 0) {
        // Reading at EOF is a success with zero bytes; it never
        // travels the data path.
        completeLocal(res, std::move(done));
        return;
    }

    r.done = [this, h, off = r.off, n = r.len, advance = !at, res,
              done = std::move(done)](Status st, lfs::InodeNum) mutable {
        res.status = st;
        res.bytes = st == Status::Ok ? n : 0;
        res.completed = eq.now();
        if (st == Status::Ok && advance) {
            const auto it = open.find(h);
            if (it != open.end())
                it->second.pos = off + n;
        }
        if (done)
            done(res);
    };
    submit(std::move(r));
}

void
RaidFileClient::raidRead(Handle h, std::uint64_t len, Completion done)
{
    issue(OpKind::Read, h, std::nullopt, len, std::move(done));
}

void
RaidFileClient::raidPRead(Handle h, std::uint64_t off, std::uint64_t len,
                          Completion done)
{
    issue(OpKind::Read, h, off, len, std::move(done));
}

void
RaidFileClient::raidWrite(Handle h, std::uint64_t len, Completion done)
{
    issue(OpKind::Write, h, std::nullopt, len, std::move(done));
}

void
RaidFileClient::raidPWrite(Handle h, std::uint64_t off, std::uint64_t len,
                           Completion done)
{
    issue(OpKind::Write, h, off, len, std::move(done));
}

// ---------------------------------------------------------------------
// Handle state
// ---------------------------------------------------------------------

Status
RaidFileClient::raidSeek(Handle h, std::uint64_t pos)
{
    const auto it = open.find(h);
    if (it == open.end())
        return Status::BadHandle;
    it->second.pos = pos;
    return Status::Ok;
}

Status
RaidFileClient::raidClose(Handle h)
{
    return open.erase(h) ? Status::Ok : Status::BadHandle;
}

std::optional<std::uint64_t>
RaidFileClient::position(Handle h) const
{
    const auto it = open.find(h);
    if (it == open.end())
        return std::nullopt;
    return it->second.pos;
}

} // namespace raid2::server
