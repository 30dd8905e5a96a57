/**
 * @file
 * Power-cut fault injector.
 *
 * The paper validates SnG by physically pulling AC power at
 * arbitrary moments; the FaultInjector is the simulator's plug. It
 * arms the functional store's durability cursor at the tick the
 * rails fall out of specification (typically computed by a
 * PowerRail), so that every byte a persistence mechanism writes
 * after that moment is dropped — or, for the one cache line in
 * flight, torn. Disarm it when "AC returns" and run the recovery
 * path; the campaign invariants then check that the machine either
 * resumes from the last durable commit or cold-boots, never a third
 * outcome.
 */

#ifndef LIGHTPC_FAULT_FAULT_INJECTOR_HH
#define LIGHTPC_FAULT_FAULT_INJECTOR_HH

#include <cstdint>

#include "mem/backing_store.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/**
 * Arms and disarms power cuts on one functional store.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(mem::BackingStore &store_in)
        : store(store_in)
    {}

    /** Disarms on destruction so a store never outlives its cut. */
    ~FaultInjector()
    {
        if (_armed)
            store.disarmPowerCut();
    }

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Rails out of specification at @p cut_tick; @p seed drives the
     * torn-line RNG.
     */
    void
    armCut(Tick cut_tick, std::uint64_t seed)
    {
        store.armPowerCut(cut_tick, seed);
        _armed = true;
    }

    /**
     * AC restored: durable writes flow again. The store keeps its
     * cutStats().
     */
    void
    powerRestored()
    {
        store.disarmPowerCut();
        _armed = false;
    }

  private:
    mem::BackingStore &store;
    bool _armed = false;
};

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_FAULT_INJECTOR_HH
