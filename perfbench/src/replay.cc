#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>

#include "fs/array_block_device.hh"
#include "integrity/verifying_device.hh"
#include "raid/raid_array.hh"

namespace perfbench {

namespace {

using namespace raid2;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Adds the wall time of its scope to an accumulator. */
class ScopeTimer
{
  public:
    explicit ScopeTimer(std::int64_t &acc) : acc(acc), t0(nowNs()) {}
    ~ScopeTimer() { acc += nowNs() - t0; }
    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    std::int64_t &acc;
    std::int64_t t0;
};

/** Pass-through device that adds the wall time of every call into the
 *  device below it to one accumulator (a layer boundary span). */
class TimedDevice : public fs::BlockDevice
{
  public:
    TimedDevice(fs::BlockDevice &inner, std::int64_t &acc)
        : inner(inner), acc(acc)
    {
    }

    std::uint32_t blockSize() const override { return inner.blockSize(); }
    std::uint64_t numBlocks() const override { return inner.numBlocks(); }

    void
    readBlock(std::uint64_t bno, std::span<std::uint8_t> out) override
    {
        ScopeTimer t(acc);
        inner.readBlock(bno, out);
    }
    void
    writeBlock(std::uint64_t bno,
               std::span<const std::uint8_t> data) override
    {
        ScopeTimer t(acc);
        inner.writeBlock(bno, data);
    }
    void
    readRange(std::uint64_t bno, std::uint64_t count,
              std::span<std::uint8_t> out) override
    {
        ScopeTimer t(acc);
        inner.readRange(bno, count, out);
    }
    void
    writeRange(std::uint64_t bno, std::uint64_t count,
               std::span<const std::uint8_t> data) override
    {
        ScopeTimer t(acc);
        inner.writeRange(bno, count, data);
    }
    void
    flush() override
    {
        ScopeTimer t(acc);
        inner.flush();
    }

  private:
    fs::BlockDevice &inner;
    std::int64_t &acc;
};

} // namespace

ReplayTimes
replayStream(const ChainConfig &cfg, const FsStep &populate,
             const std::vector<StreamOp> &ops, const FsStep &check,
             std::uint32_t world, std::vector<Span> &spans)
{
    const std::uint32_t bs = cfg.fsParams.blockSize;
    std::int64_t integrityNs = 0;
    std::int64_t raidNs = 0;

    // Declaration order = teardown order: wrappers die first.
    raid::RaidArray array(cfg.layout, cfg.diskBytes);
    fs::ArrayBlockDevice arrayDev(array, bs, cfg.deviceBytes / bs);
    TimedDevice raidEdge(arrayDev, raidNs);
    integrity::VerifyingDevice verify(raidEdge, &array);
    TimedDevice integrityEdge(verify, integrityNs);
    lfs::Lfs::format(integrityEdge, cfg.fsParams);
    auto fs = std::make_unique<lfs::Lfs>(integrityEdge);
    fs->setAutoClean(true);
    populate(*fs);
    integrityNs = raidNs = 0; // population is set-up, not replay

    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> scratch;
    std::int64_t totalNs = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const StreamOp &op = ops[i];
        if (op.kind == StreamOp::Kind::Write) {
            // The payload is the client's data, not file-system work.
            payload.resize(op.len);
            writePayload(op.ino, op.off, payload);
        }
        const std::int64_t i0 = integrityNs, r0 = raidNs;
        const std::int64_t start = nowNs();
        bool raidOnly = false;
        switch (op.kind) {
          case StreamOp::Kind::Create:
            fs->create(op.path);
            break;
          case StreamOp::Kind::Write:
            fs->write(op.ino, op.off, payload);
            break;
          case StreamOp::Kind::Sync:
            fs->sync();
            break;
          case StreamOp::Kind::Read:
            // The server's checked read: map the extents, then
            // verify-on-read each one on the functional device.
            for (const lfs::FileExtent &e :
                 fs->mapFile(op.ino, op.off, op.len)) {
                if (e.hole)
                    continue;
                const std::uint64_t b0 = e.deviceOffset / bs;
                const std::uint64_t b1 =
                    std::min((e.deviceOffset + e.bytes + bs - 1) / bs,
                             verify.numBlocks());
                if (b0 >= b1)
                    continue;
                ScopeTimer t(integrityNs);
                scratch.resize((b1 - b0) * bs);
                verify.verifiedReadRange(b0, b1 - b0, scratch);
            }
            break;
          case StreamOp::Kind::FailDisk:
            array.failDisk(op.disk);
            raidOnly = true;
            break;
          case StreamOp::Kind::RestoreDisk:
            if (array.isFailed(op.disk))
                array.rebuildDisk(op.disk);
            raidOnly = true;
            break;
        }
        const std::int64_t end = nowNs();
        if (raidOnly) {
            integrityNs += end - start;
            raidNs += end - start;
        }
        spans.push_back(Span{world, static_cast<std::uint32_t>(i),
                             op.kind, start, end, integrityNs - i0,
                             raidNs - r0});
        totalNs += end - start;
    }

    ReplayTimes t;
    t.ops = ops.size();
    t.total = static_cast<double>(totalNs) / 1e9;
    t.lfs = static_cast<double>(totalNs - integrityNs) / 1e9;
    t.integrity = static_cast<double>(integrityNs - raidNs) / 1e9;
    t.raid = static_cast<double>(raidNs) / 1e9;
    check(*fs); // untimed: after the totals are taken
    return t;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    static const char *const kindNames[] = {
        "create", "write", "sync", "read", "fail_disk", "restore_disk"};
    std::ofstream os(path);
    if (!os)
        return false;
    const std::int64_t base = spans.empty() ? 0 : spans.front().startNs;
    os << "world,op,kind,start_ns,end_ns,integrity_ns,raid_ns\n";
    for (const Span &s : spans) {
        os << s.world << ',' << s.op << ','
           << kindNames[static_cast<int>(s.kind)] << ','
           << s.startNs - base << ',' << s.endNs - base << ','
           << s.integrityNs << ',' << s.raidNs << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
