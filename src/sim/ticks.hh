/**
 * @file
 * Simulation time base.
 *
 * All simulated time in LightPC is expressed in Ticks, where one tick
 * is one picosecond. Helper constants and conversion routines let
 * device models express latencies in natural units (nanoseconds,
 * cycles at a given frequency) without losing precision.
 */

#ifndef LIGHTPC_SIM_TICKS_HH
#define LIGHTPC_SIM_TICKS_HH

#include <cstdint>

namespace lightpc
{

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** A signed tick difference. */
using TickDelta = std::int64_t;

/** One picosecond. */
constexpr Tick tickPs = 1;
/** One nanosecond. */
constexpr Tick tickNs = 1000 * tickPs;
/** One microsecond. */
constexpr Tick tickUs = 1000 * tickNs;
/** One millisecond. */
constexpr Tick tickMs = 1000 * tickUs;
/** One second. */
constexpr Tick tickSec = 1000 * tickMs;

/** The largest representable time; used as "never". */
constexpr Tick maxTick = ~Tick(0);

/**
 * Clock period for a frequency given in megahertz.
 *
 * @param mhz Frequency in MHz.
 * @return Ticks per clock cycle.
 */
constexpr Tick
periodFromMhz(std::uint64_t mhz)
{
    return tickSec / (mhz * 1000 * 1000);
}

/** Convert ticks to (double) microseconds, for reporting. */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickUs);
}

/** Convert ticks to (double) milliseconds, for reporting. */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickMs);
}

/** Convert ticks to (double) seconds, for reporting. */
constexpr double
ticksToSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickSec);
}

/**
 * A clock domain: converts between cycles and ticks for one frequency.
 *
 * Cores and memory devices each carry a ClockDomain so that models can
 * be written in cycles while the event queue runs in ticks.
 */
class ClockDomain
{
  public:
    /** Construct a domain running at @p mhz megahertz. */
    explicit ClockDomain(std::uint64_t mhz)
        : _period(periodFromMhz(mhz)), _mhz(mhz)
    {}

    /** Ticks per cycle. */
    Tick period() const { return _period; }

    /** Frequency in MHz. */
    std::uint64_t mhz() const { return _mhz; }

    /** Convert a cycle count to ticks. */
    Tick toTicks(std::uint64_t cycles) const { return cycles * _period; }

    /** Convert ticks to whole cycles (rounding up). */
    std::uint64_t
    toCycles(Tick t) const
    {
        return (t + _period - 1) / _period;
    }

  private:
    Tick _period;
    std::uint64_t _mhz;
};

} // namespace lightpc

#endif // LIGHTPC_SIM_TICKS_HH
