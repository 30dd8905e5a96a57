/**
 * @file
 * Line retirement / remap table (graceful degradation tier).
 *
 * Stuck-at symbols are permanent media damage: rewriting the line
 * does not heal them, and as stuck cells accumulate a line marches
 * toward the uncorrectable (containment) case. The PSM therefore
 * keeps a small remap table layered *after* Start-Gap: a physical
 * line slot whose media has started sticking is retired to a spare
 * slot carved from the top of the managed space, and all future
 * traffic — from whichever logical line Start-Gap currently rotates
 * onto that slot — lands on the spare instead.
 *
 * The table is keyed by physical slot because the damage is physical:
 * Start-Gap keeps rotating logical lines across slots, but a bad slot
 * stays bad no matter which logical line is passing through it.
 *
 * In hardware the table lives in PSM SRAM and is persisted with the
 * other PSM registers at the EP-cut; an OC-PMEM reset (the
 * ResetColdBoot MCE arm) clears it together with the media state.
 */

#ifndef LIGHTPC_PSM_RETIRE_HH
#define LIGHTPC_PSM_RETIRE_HH

#include <cstdint>
#include <unordered_map>

namespace lightpc::psm
{

/**
 * Physical-slot remap table with a bump-allocated spare pool.
 */
class RetireTable
{
  public:
    /**
     * @param spare_base  First physical slot of the spare pool.
     * @param spare_count Slots in the pool (0 disables retirement).
     */
    RetireTable(std::uint64_t spare_base, std::uint64_t spare_count)
        : spareBase(spare_base), spareCount(spare_count)
    {
    }

    /** Final physical slot serving @p slot (identity when healthy). */
    std::uint64_t
    remap(std::uint64_t slot) const
    {
        // Almost always empty: skip the hash on the per-access path.
        if (map.empty())
            return slot;
        const auto it = map.find(slot);
        return it == map.end() ? slot : it->second;
    }

    /** True when a spare is still available. */
    bool canRetire() const { return nextSpare < spareCount; }

    /**
     * Retire the slot currently serving @p slot. If @p slot was
     * already remapped, the *spare* went bad and is replaced by a
     * fresh one (the chain is collapsed: remap stays one lookup).
     *
     * @return The replacement slot, or ~0 when the pool is empty.
     */
    std::uint64_t
    retire(std::uint64_t slot)
    {
        if (!canRetire())
            return ~std::uint64_t(0);
        const std::uint64_t spare = spareBase + nextSpare++;
        map[slot] = spare;
        ++retired;
        return spare;
    }

    /** True when @p slot is currently served by a spare. */
    bool isRetired(std::uint64_t slot) const
    {
        return map.find(slot) != map.end();
    }

    /** Retirements performed (replacing a bad spare counts again). */
    std::uint64_t retiredCount() const { return retired; }

    /** Slots remapped right now. */
    std::uint64_t mappedCount() const { return map.size(); }

    /** Spares still available. */
    std::uint64_t sparesLeft() const { return spareCount - nextSpare; }

    /** Total pool size. */
    std::uint64_t spareTotal() const { return spareCount; }

    /** Wipe all mappings (OC-PMEM reset). */
    void
    reset()
    {
        map.clear();
        nextSpare = 0;
        retired = 0;
    }

  private:
    std::uint64_t spareBase;
    std::uint64_t spareCount;
    std::uint64_t nextSpare = 0;
    std::uint64_t retired = 0;
    /** bad physical slot -> spare slot serving it. */
    std::unordered_map<std::uint64_t, std::uint64_t> map;
};

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_RETIRE_HH
