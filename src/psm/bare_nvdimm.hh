/**
 * @file
 * Bare-metal PRAM DIMM channel geometry (Section V-B, Fig. 13).
 *
 * A Bare-NVDIMM carries eight PRAM devices plus ECC devices. Two
 * layouts are modeled:
 *
 *  - DramLike: all eight devices share one chip enable, so any access
 *    drives the whole rank at 8 x 32 B = 256 B granularity. A 64 B
 *    cacheline write needs a read-modify cycle and every access
 *    monopolizes the rank (one service unit per DIMM).
 *
 *  - DualChannel (LightPC's design): devices are paired, each pair
 *    with its own chip enable, so a 64 B line is served by one
 *    2 x 32 B group while the other three groups stay available —
 *    intra-DIMM parallelism on top of the usual inter-DIMM
 *    interleaving.
 */

#ifndef LIGHTPC_PSM_BARE_NVDIMM_HH
#define LIGHTPC_PSM_BARE_NVDIMM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/pram_device.hh"
#include "mem/request.hh"

namespace lightpc::psm
{

/** Chip-enable grouping of the eight PRAM devices. */
enum class DimmLayout
{
    DualChannel,  ///< 4 independent 2-device groups (LightPC).
    DramLike,     ///< 1 rank-wide group, 256 B granularity.
};

/** Configuration of one Bare-NVDIMM. */
struct BareNvdimmParams
{
    DimmLayout layout = DimmLayout::DualChannel;

    /** Timing/endurance of each PRAM device. */
    mem::PramParams device;

    /** Data devices per DIMM (conventionally eight). */
    std::uint32_t devicesPerDimm = 8;
};

/**
 * One Bare-NVDIMM: a set of independently-schedulable device groups.
 */
class BareNvdimm
{
  public:
    explicit BareNvdimm(const BareNvdimmParams &params);

    const BareNvdimmParams &params() const { return _params; }

    /** Independent service units on this DIMM (4 or 1). */
    std::uint32_t groupCount() const
    {
        return static_cast<std::uint32_t>(groups.size());
    }

    /**
     * A 64 B write on the DramLike layout must read-modify the full
     * 256 B rank access.
     */
    bool needsReadModifyWrite() const
    {
        return _params.layout == DimmLayout::DramLike;
    }

    /** Access the group timing model. */
    mem::PramDevice &group(std::uint32_t idx) { return *groups[idx]; }
    const mem::PramDevice &group(std::uint32_t idx) const
    {
        return *groups[idx];
    }

    /** Latest busy-until across all groups (flush support). */
    Tick busyUntil() const;

    /** Reset all groups. */
    void reset();

  private:
    BareNvdimmParams _params;
    std::vector<std::unique_ptr<mem::PramDevice>> groups;
};

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_BARE_NVDIMM_HH
