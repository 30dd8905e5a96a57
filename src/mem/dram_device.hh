/**
 * @file
 * DRAM DIMM timing model.
 *
 * A banked DRAM device with per-bank row buffers and periodic refresh.
 * Used as LegacyPC's working memory, as the local-node DRAM behind the
 * Optane-style PMEM complex, and as the DRAM reference series in
 * Fig. 2b. Refresh is modeled both for timing (tRFC windows that delay
 * colliding accesses) and for the power model (the refresh burden
 * LightPC eliminates).
 */

#ifndef LIGHTPC_MEM_DRAM_DEVICE_HH
#define LIGHTPC_MEM_DRAM_DEVICE_HH

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sim/fast_div.hh"
#include "sim/ticks.hh"

namespace lightpc::mem
{

/** Configuration of one DRAM DIMM. */
struct DramParams
{
    /** Number of banks. */
    std::uint32_t banks = 8;

    /** Row (page) size per bank in bytes. */
    std::uint64_t rowBytes = 2048;

    /** Access latency when the target row is open. */
    Tick rowHitLatency = 25 * tickNs;

    /** Access latency when another row must be closed first. */
    Tick rowMissLatency = 50 * tickNs;

    /** Average refresh command interval (tREFI). */
    Tick refreshInterval = 7800 * tickNs;

    /** Refresh duration during which a bank is unavailable (tRFC). */
    Tick refreshLatency = 350 * tickNs;

    /** DIMM capacity in bytes. */
    std::uint64_t capacityBytes = std::uint64_t(8) << 30;
};

/**
 * One DRAM DIMM with banked row buffers and refresh.
 */
class DramDevice
{
  public:
    explicit DramDevice(const DramParams &params = DramParams());

    const DramParams &params() const { return _params; }

    /**
     * Service an access starting no earlier than @p when.
     *
     * Reads and writes share the row-buffer timing; DRAM writes are
     * absorbed by the open row just like reads (no PRAM-style cooling
     * window).
     */
    AccessResult access(const MemRequest &req, Tick when);

    /** Refresh windows charged so far. */
    std::uint64_t refreshCount() const { return refreshes; }

    /** Total reads serviced. */
    std::uint64_t readCount() const { return reads; }

    /** Total writes serviced. */
    std::uint64_t writeCount() const { return writes; }

    /** Reset timing state. */
    void reset();

  private:
    struct Bank
    {
        Tick busyUntil = 0;
        std::uint64_t openRow = ~std::uint64_t(0);
    };

    /** Charge any refresh windows that elapsed before @p when. */
    void catchUpRefresh(Tick when);

    DramParams _params;
    FastDiv rowDecode;   ///< divisor: rowBytes
    FastDiv bankDecode;  ///< divisor: banks
    std::vector<Bank> bankState;
    Tick nextRefresh;
    std::uint64_t refreshes = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_DRAM_DEVICE_HH
