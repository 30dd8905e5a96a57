#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::cpu
{

Core::Core(EventQueue &eq_in, const CoreParams &params,
           mem::MemoryPort &mem_port)
    : eq(eq_in),
      _params(params),
      _clock(params.freqMhz),
      fetchRng(CoreParams::fetchSeed)
{
    issueCost = static_cast<Tick>(
        static_cast<double>(_clock.period()) * _params.baseCpi);
    if (issueCost == 0)
        issueCost = 1;
    _dcache = std::make_unique<cache::L1Cache>(_params.dcache, mem_port);
    if (_params.modelIFetch)
        _icache = std::make_unique<cache::L1Cache>(_params.icache,
                                                   mem_port);
    storeBuffer.assign(_params.storeBufferEntries, 0);
}

void
Core::setCodeRegion(mem::Addr base, std::uint64_t bytes)
{
    if (bytes < mem::cacheLineBytes)
        fatal("code region must hold at least one line");
    codeBase = base;
    codeBytes = bytes;
    fetchPc = 0;
}

void
Core::fetch()
{
    // Sequential fetch with occasional taken branches; only the
    // line-crossing fetches touch the I$ (4 B instructions, 64 B
    // lines -> one probe per 16 sequential instructions). Taken
    // branches follow real control-flow structure: mostly short
    // backward loops, then calls into a small set of hot functions,
    // with a cold-call tail that grows painful as the code
    // footprint outruns the I$.
    const mem::Addr old_line = fetchPc & ~std::uint64_t(63);
    if (fetchRng.chance(_params.branchProbability)) {
        const double kind = fetchRng.uniform();
        if (kind < 0.70) {
            // Loop back-edge: re-execute the last few lines.
            const std::uint64_t back = fetchRng.between(64, 512);
            fetchPc = (fetchPc + codeBytes - back) % codeBytes
                & ~std::uint64_t(3);
        } else if (kind < 0.95) {
            // Call into one of 16 hot function entry points.
            const std::uint64_t fn = fetchRng.below(16);
            fetchPc = (fn * 0x9e3779b97f4a7c15ULL) % codeBytes
                & ~std::uint64_t(3);
        } else {
            // Cold call somewhere in the full footprint.
            fetchPc = fetchRng.below(codeBytes) & ~std::uint64_t(3);
        }
    } else {
        fetchPc = (fetchPc + 4) % codeBytes;
    }
    const mem::Addr line = fetchPc & ~std::uint64_t(63);
    if (line == old_line)
        return;

    const auto access = _icache->load(codeBase + line, now);
    if (!access.hit) {
        // Frontend stall: the pipeline drains until the line lands.
        const Tick stall = access.completeAt - now;
        _stats.fetchStallTicks += stall;
        now = access.completeAt;
    }
}

void
Core::run(InstrStream &instr_stream, Tick when)
{
    if (active)
        fatal("Core is already running a stream");
    stream = &instr_stream;
    active = true;
    streamDone = false;
    ++generation;
    now = std::max(when, eq.now());
    startedAt = now;
    scheduleEpisode();
}

void
Core::stop()
{
    active = false;
    ++generation;
}

double
Core::ipc() const
{
    const Tick elapsed = now - startedAt;
    if (elapsed == 0)
        return 0.0;
    const double cycles =
        static_cast<double>(elapsed) / static_cast<double>(_clock.period());
    return static_cast<double>(_stats.instructions) / cycles;
}

void
Core::scheduleEpisode()
{
    const std::uint64_t gen = generation;
    eq.schedule(now, [this, gen] {
        if (gen == generation)
            episode();
    });
}

Tick
Core::storeBufferAdmit(Tick when, Tick complete_at)
{
    auto slot = std::min_element(storeBuffer.begin(), storeBuffer.end());
    Tick admit = when;
    if (*slot > when) {
        _stats.storeStallTicks += *slot - when;
        admit = *slot;
    }
    *slot = std::max(admit, complete_at);
    return admit;
}

void
Core::episode()
{
    if (!active)
        return;

    for (std::uint32_t n = 0; n < _params.episodeLimit;) {
        // A run entry never crosses the episode boundary; with
        // instruction fetch modelled, every instruction fetches.
        const std::uint32_t budget =
            _icache ? 1 : _params.episodeLimit - n;
        Instr instr;
        if (!stream->nextRun(instr, budget)) {
            active = false;
            streamDone = true;
            if (finishedCb)
                finishedCb();
            return;
        }
        n += instr.count;
        _stats.instructions += instr.count;

        // The run's leading ALU instructions retire at issue rate.
        const Tick alu_ticks = Tick(instr.count - 1) * issueCost;
        now += alu_ticks;
        _stats.busyTicks += alu_ticks;

        if (_icache)
            fetch();
        switch (instr.kind) {
          case InstrKind::Alu:
            now += issueCost;
            _stats.busyTicks += issueCost;
            break;

          case InstrKind::Load: {
            ++_stats.loads;
            const auto access = _dcache->load(instr.addr, now);
            if (access.hit) {
                // Pipelined L1 hit: retires at issue rate.
                now += issueCost;
                _stats.busyTicks += issueCost;
            } else {
                // Blocking load: dependent work waits for the fill.
                const Tick stall = access.completeAt - now;
                _stats.loadStallTicks += stall > issueCost
                    ? stall - issueCost : 0;
                _stats.busyTicks += std::min<Tick>(stall, issueCost);
                now = access.completeAt;
                scheduleEpisode();
                return;
            }
            break;
          }

          case InstrKind::Store: {
            ++_stats.stores;
            const auto access = _dcache->store(instr.addr, now);
            if (access.hit) {
                now += issueCost;
                _stats.busyTicks += issueCost;
            } else {
                // The store retires into the store buffer; the core
                // only waits when the buffer is full.
                const Tick admit =
                    storeBufferAdmit(now, access.completeAt);
                now = admit + issueCost;
                _stats.busyTicks += issueCost;
                scheduleEpisode();
                return;
            }
            break;
          }
        }
    }
    scheduleEpisode();
}

} // namespace lightpc::cpu
