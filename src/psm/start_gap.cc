#include "psm/start_gap.hh"

#include <bit>

#include "sim/logging.hh"

namespace lightpc::psm
{

namespace
{

/** splitmix64-style mixer used as the Feistel round function. */
std::uint32_t
mix32(std::uint32_t x, std::uint64_t key)
{
    std::uint64_t z = x + key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint32_t>(z ^ (z >> 31));
}

} // namespace

StartGap::StartGap(const StartGapParams &params)
    : _params(params), gapReg(params.lines)
{
    if (_params.lines < 2)
        fatal("StartGap requires at least two lines");
    if (_params.writeThreshold == 0)
        fatal("StartGap writeThreshold must be nonzero");
    if (_params.pageLines == 0 || _params.lines % _params.pageLines != 0)
        fatal("StartGap pageLines must be nonzero and divide lines");

    // Balanced Feistel network over an even number of bits covering
    // [0, pageCount).
    pageDecode.set(_params.pageLines);
    pageCount = _params.lines / _params.pageLines;
    unsigned bits = 64u - static_cast<unsigned>(
        std::countl_zero(pageCount - 1));
    if (bits < 2)
        bits = 2;
    if (bits & 1)
        ++bits;
    halfBits = bits / 2;
    halfMask = halfBits >= 32 ? 0xffffffffu : ((1u << halfBits) - 1);
}

void
StartGap::permutePage(std::uint64_t page) const
{
    // Cycle-walk values that land outside [0, pageCount).
    std::uint64_t value = page;
    do {
        std::uint32_t left = static_cast<std::uint32_t>(
            (value >> halfBits) & halfMask);
        std::uint32_t right =
            static_cast<std::uint32_t>(value & halfMask);
        for (unsigned round = 0; round < 4; ++round) {
            const std::uint32_t tmp = right;
            right = (left ^ mix32(right, _params.randomizerSeed + round))
                & halfMask;
            left = tmp;
        }
        value = (std::uint64_t(left) << halfBits) | right;
    } while (value >= pageCount);
    memoPage = page;
    memoBase = value * _params.pageLines;
}

void
StartGap::remapOutOfRange(std::uint64_t line)
{
    panic("StartGap remap out of range: ", line);
}

bool
StartGap::recordWrite()
{
    if (++writeCounter < _params.writeThreshold)
        return false;
    writeCounter = 0;
    ++moves;
    if (gapReg == 0) {
        // The gap wraps from slot 0 back to slot N and the whole
        // space has rotated by one line.
        gapReg = _params.lines;
        startReg = (startReg + 1) % _params.lines;
    } else {
        --gapReg;
    }
    return true;
}

StartGapState
StartGap::save() const
{
    StartGapState state;
    state.start = startReg;
    state.gap = gapReg;
    state.writeCounter = writeCounter;
    state.totalMoves = moves;
    state.randomizerSeed = _params.randomizerSeed;
    return state;
}

void
StartGap::restore(const StartGapState &state)
{
    if (state.randomizerSeed != _params.randomizerSeed)
        fatal("StartGap restore with mismatched randomizer seed");
    if (state.start >= _params.lines || state.gap > _params.lines)
        fatal("StartGap restore with registers out of range");
    startReg = state.start;
    gapReg = state.gap;
    writeCounter = state.writeCounter;
    moves = state.totalMoves;
}

} // namespace lightpc::psm
