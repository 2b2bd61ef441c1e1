#include "raid/disk_fault_state.hh"

#include <algorithm>

#include "raid/raid_array.hh"

namespace raid2::raid {

DiskFaultState::DiskFaultState(unsigned num_disks)
    : failed(num_disks, false), _latents(num_disks)
{
}

DiskFaultState::Intervals::const_iterator
DiskFaultState::firstEndingAfter(const Intervals &m, std::uint64_t off)
{
    auto it = m.upper_bound(off);
    if (it != m.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + prev->second > off)
            return prev;
    }
    return it;
}

unsigned
DiskFaultState::failedCount() const
{
    return static_cast<unsigned>(
        std::count(failed.begin(), failed.end(), true));
}

void
DiskFaultState::failDisk(unsigned d)
{
    failed.at(d) = true;
    _latents[d].clear();
    if (twin)
        twin->wipeDisk(d);
}

void
DiskFaultState::restoreDisk(unsigned d)
{
    if (!failed.at(d))
        return;
    // Rebuild while the flag is still set: clearing it first would
    // serve the destroyed bytes.
    if (twin)
        twin->rebuildContents(d);
    failed[d] = false;
}

void
DiskFaultState::addLatent(unsigned d, std::uint64_t off,
                          std::uint64_t bytes)
{
    if (bytes == 0 || failed.at(d))
        return;
    if (twin)
        twin->garbleRange(d, off, bytes);
    // Merge with every interval it overlaps or abuts.
    Intervals &m = _latents[d];
    std::uint64_t s = off, e = off + bytes;
    auto it = m.upper_bound(s);
    if (it != m.begin())
        --it;
    while (it != m.end() && it->first <= e) {
        const std::uint64_t iend = it->first + it->second;
        if (iend < s) {
            ++it;
            continue;
        }
        s = std::min(s, it->first);
        e = std::max(e, iend);
        it = m.erase(it);
    }
    m.emplace(s, e - s);
}

bool
DiskFaultState::latentOverlaps(unsigned d, std::uint64_t off,
                               std::uint64_t bytes) const
{
    const Intervals &m = _latents.at(d);
    if (m.empty() || bytes == 0)
        return false;
    const auto it = firstEndingAfter(m, off);
    return it != m.end() && it->first < off + bytes;
}

LatentRepair
DiskFaultState::repairLatent(unsigned d, std::uint64_t off,
                             std::uint64_t bytes)
{
    LatentRepair r;
    // Only the defective subranges: reconstructing the whole span
    // would read bytes that are latent on *other* disks.
    forEachLatent(d, off, bytes, [&](std::uint64_t s, std::uint64_t n) {
        if (twin)
            twin->reconstructInPlace(d, s, n);
        ++r.ranges;
        r.bytes += n;
    });
    clearLatent(d, off, bytes);
    return r;
}

void
DiskFaultState::clearLatent(unsigned d, std::uint64_t off,
                            std::uint64_t bytes)
{
    Intervals &m = _latents.at(d);
    if (bytes == 0)
        return;
    const std::uint64_t end = off + bytes;
    auto it = firstEndingAfter(m, off);
    while (it != m.end() && it->first < end) {
        const std::uint64_t istart = it->first;
        const std::uint64_t iend = it->first + it->second;
        it = m.erase(it);
        if (istart < off)
            m.emplace(istart, off - istart);
        if (iend > end)
            it = m.emplace(end, iend - end).first;
    }
}

std::uint64_t
DiskFaultState::latentRanges() const
{
    std::uint64_t n = 0;
    for (const Intervals &m : _latents)
        n += m.size();
    return n;
}

std::uint64_t
DiskFaultState::latentBytes() const
{
    std::uint64_t n = 0;
    for (const Intervals &m : _latents)
        for (const auto &[s, len] : m)
            n += len;
    return n;
}

} // namespace raid2::raid
