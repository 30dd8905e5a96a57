/**
 * @file
 * Patrol scrubber: background sweep of OC-PMEM for latent media
 * faults.
 *
 * Transient (drift) corruption accumulates silently on cold lines —
 * nothing reads them, so nothing corrects them, and a line can decay
 * past what the ECC tiers repair before anyone notices. The patrol
 * scrubber closes that window: it walks every *logical* line in
 * order, reading each codeword in an idle row-buffer slot, letting
 * the PSM rewrite transiently-corrupted lines and retire slots whose
 * media has started sticking.
 *
 * Sweeping logical (not physical) indices makes the sweep immune to
 * Start-Gap rotation: the gap can move any number of times mid-sweep
 * and each logical line is still visited exactly once per sweep —
 * no line is skipped because it rotated behind the cursor and none
 * is scrubbed twice because it rotated ahead of it. (The physical
 * gap slot holds no data and needs no scrubbing.)
 */

#ifndef LIGHTPC_PSM_SCRUB_HH
#define LIGHTPC_PSM_SCRUB_HH

#include <cstdint>

#include "psm/psm.hh"
#include "sim/ticks.hh"

namespace lightpc::psm
{

/** Configuration of the patrol scrubber. */
struct ScrubParams
{
    /** Lines visited per step() call (the idle-slot budget). */
    std::uint64_t linesPerStep = 64;

    /**
     * Give up on a busy line after this many consecutive deferrals
     * and move on (it will be caught next sweep); keeps one hot unit
     * from stalling the whole patrol. Zero retries forever.
     */
    std::uint32_t maxRetries = 8;
};

/** Counters of one scrubber instance. */
struct ScrubberStats
{
    std::uint64_t sweeps = 0;       ///< complete passes over the space
    std::uint64_t retirements = 0;  ///< slots moved to spares
    std::uint64_t skipped = 0;      ///< lines abandoned after retries
};

/**
 * The patrol sim-object. Call step() whenever the platform has idle
 * time; the scrubber advances its cursor and services up to
 * linesPerStep lines through Psm::scrubLine().
 */
class PatrolScrubber
{
  public:
    explicit PatrolScrubber(Psm &psm,
                            const ScrubParams &params = ScrubParams());

    const ScrubParams &params() const { return _params; }

    /**
     * Advance the sweep at time @p when.
     *
     * @return Lines serviced this step (deferred lines don't count).
     */
    std::uint64_t step(Tick when);

    /** Next logical line the patrol will visit. */
    std::uint64_t cursor() const { return _cursor; }

    /** Complete passes over the managed space so far. */
    std::uint64_t sweepsCompleted() const { return _stats.sweeps; }

    const ScrubberStats &stats() const { return _stats; }

    /** Restart the sweep from line 0 (cold boot). */
    void reset();

  private:
    Psm &psm;
    ScrubParams _params;
    std::uint64_t _cursor = 0;
    std::uint32_t retries = 0;
    ScrubberStats _stats;
};

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_SCRUB_HH
