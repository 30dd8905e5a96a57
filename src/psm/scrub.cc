#include "psm/scrub.hh"

#include "sim/logging.hh"

namespace lightpc::psm
{

PatrolScrubber::PatrolScrubber(Psm &psm_, const ScrubParams &params)
    : psm(psm_), _params(params)
{
    if (_params.linesPerStep == 0)
        fatal("PatrolScrubber linesPerStep must be nonzero");
    if (psm.managedLines() == 0)
        fatal("PatrolScrubber needs a nonempty managed space");
}

std::uint64_t
PatrolScrubber::step(Tick when)
{
    std::uint64_t serviced = 0;
    for (std::uint64_t budget = _params.linesPerStep; budget > 0;
         --budget) {
        const Psm::ScrubOutcome out = psm.scrubLine(_cursor, when);
        if (!out.serviced) {
            // Busy unit (or the line is dirty in its row buffer).
            // Stay on the line so the sweep stays gapless, up to the
            // retry budget; a persistently-hot line is abandoned
            // until the next sweep rather than stalling the patrol.
            if (_params.maxRetries != 0
                && ++retries >= _params.maxRetries) {
                ++_stats.skipped;
            } else {
                break;
            }
        } else {
            ++serviced;
            if (out.retired)
                ++_stats.retirements;
        }
        retries = 0;
        if (++_cursor == psm.managedLines()) {
            _cursor = 0;
            ++_stats.sweeps;
            // End the step at the sweep boundary even with budget
            // left: a step that spilled into the next sweep would
            // make per-sweep accounting (lines serviced exactly
            // once per sweep) depend on step alignment.
            break;
        }
    }
    return serviced;
}

void
PatrolScrubber::reset()
{
    _cursor = 0;
    retries = 0;
    _stats = ScrubberStats{};
}

} // namespace lightpc::psm
