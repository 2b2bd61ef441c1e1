/**
 * @file
 * Orchestrated fault injection for the RAID-II simulator.
 *
 * The FaultController replays a FaultPlan into a running system
 * through the small hook points the layers expose: DiskModel::stall,
 * ScsiString::injectHang, XbusBoard::injectPortError,
 * HippiChannel::injectLinkDown, and the timed array's
 * raid::DiskFaultState (whole-disk failures and latent media defects).
 * It keeps no fault state of its own: the DiskFaultState is the one
 * owner, a functional RaidArray twin is built against it, so a fault
 * changed there reaches the twin's bytes in the same call and nothing
 * is mirrored (the property tests compare the functional plane against
 * a fault-free shadow).  It accounts the latent repairs that timed
 * reads (counted by the array) and the scrubber make.
 *
 * Injection preserves the recoverability invariant documented in
 * RaidArray: events that *would* destroy data — a second disk death
 * while degraded, a latent error surfacing while the array is
 * degraded, latent ranges colliding across disks, or latents
 * outstanding on survivors when a disk dies (the rebuild would be
 * unable to reconstruct those stripes) — are accounted as data-loss
 * events instead of being injected, which is exactly the quantity a
 * Monte Carlo MTTDL campaign estimates.
 */

#ifndef RAID2_FAULT_FAULT_CONTROLLER_HH
#define RAID2_FAULT_FAULT_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault_plan.hh"
#include "net/hippi.hh"
#include "raid/raid_array.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

namespace raid2::fault {

/** Deterministic fault injector + repair accounting. */
class FaultController
{
  public:
    /** Injection targets.  @c array is required; the rest optional. */
    struct Hooks
    {
        raid::SimArray *array = nullptr;
        /** Functional twin, built against @c array's fault state:
         *  the target of media silent corruption. */
        raid::RaidArray *functional = nullptr;
        /** HIPPI channel for link-drop events. */
        net::HippiChannel *hippi = nullptr;
    };

    FaultController(sim::EventQueue &eq, std::string name, Hooks hooks);

    /** @{ The plan.  start() schedules every event; call once. */
    void setPlan(FaultPlan plan);
    const FaultPlan &plan() const { return _plan; }
    void start();
    /** @} */

    /** Invoked after a whole-disk failure is injected (the
     *  RecoveryManager hangs its spare allocation off this). */
    void onDiskFail(std::function<void(unsigned disk)> cb)
    {
        _onDiskFail = std::move(cb);
    }

    /** Transfer/network SilentCorruption events are delivered here
     *  (the server arms one-shot flips in its integrity layer); media
     *  events are applied to the functional twin directly.  Without a
     *  listener, non-media corruption events are suppressed. */
    void onSilentCorruption(std::function<void(const FaultEvent &)> cb)
    {
        _onCorruption = std::move(cb);
    }

    /** The scrubber repaired @p r. */
    void scrubRepaired(const raid::LatentRepair &r);

    /** @{ Outstanding latent defects in the array's fault state. */
    std::uint64_t latentRangesOutstanding() const
    {
        return hooks.array->faultState().latentRanges();
    }
    std::uint64_t latentBytesOutstanding() const
    {
        return hooks.array->faultState().latentBytes();
    }
    /** @} */

    /** @{ Campaign accounting. */
    std::uint64_t injected(FaultKind k) const
    {
        return _injected[static_cast<std::size_t>(k)];
    }
    std::uint64_t injectedTotal() const;
    /** Events skipped (bad target, already-failed disk, ...). */
    std::uint64_t suppressed() const { return _suppressed; }
    /** Would-be unrecoverable situations, by cause. */
    std::uint64_t dataLossEvents() const { return _dataLossEvents; }
    std::uint64_t doubleFailures() const { return _doubleFailures; }
    std::uint64_t rebuildExposedRanges() const
    {
        return _rebuildExposed;
    }
    std::uint64_t latentsWhileDegraded() const
    {
        return _latentWhileDegraded;
    }
    /** Repairs reported back by the datapath / scrubber. */
    std::uint64_t readRepairedRanges() const
    {
        return hooks.array->latentRangesRepaired();
    }
    std::uint64_t scrubRepairedRanges() const { return _scrubRepairs; }
    /** @} */

    /** Register campaign stats under @p prefix ("fault.*"). */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix = "fault") const;

    const std::string &name() const { return _name; }

  private:
    void handleEvent(const FaultEvent &e);
    void injectDiskFail(unsigned d);
    void injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    void injectSilentCorruption(const FaultEvent &e);
    void trace(const FaultEvent &e, const char *label) const;

    sim::EventQueue &eq;
    std::string _name;
    Hooks hooks;
    FaultPlan _plan;
    bool _started = false;

    /** Per-disk span usable for latent placement. */
    std::uint64_t _diskSpan = 0;

    std::function<void(unsigned)> _onDiskFail;
    std::function<void(const FaultEvent &)> _onCorruption;

    std::array<std::uint64_t, 7> _injected{};
    std::uint64_t _suppressed = 0;
    std::uint64_t _dataLossEvents = 0;
    std::uint64_t _doubleFailures = 0;
    std::uint64_t _rebuildExposed = 0;
    std::uint64_t _latentWhileDegraded = 0;
    std::uint64_t _latentCollisions = 0;
    std::uint64_t _scrubRepairs = 0;
    std::uint64_t _scrubRepairedBytes = 0;
};

} // namespace raid2::fault

#endif // RAID2_FAULT_FAULT_CONTROLLER_HH
