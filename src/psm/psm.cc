#include "psm/psm.hh"

#include <algorithm>
#include <bit>

#include "psm/xcc.hh"
#include "sim/logging.hh"

namespace lightpc::psm
{

namespace
{

/**
 * Ground-truth byte @p i of the line stored at @p key (a splitmix64
 * hash). The data path is not simulated byte-for-byte, but the RAS
 * pipeline must run the *real* codecs on *real* codewords, so every
 * line has a deterministic pattern reconstructible from its location:
 * decode output is compared against it and any disagreement is a
 * silent-data-corruption event.
 */
std::uint8_t
patternByte(std::uint64_t key, std::uint32_t i)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL * (i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint8_t>(z ^ (z >> 31));
}

/** Fill @p h with the stored pattern of @p key, bytes [base, base+32). */
void
fillPattern(HalfLine &h, std::uint64_t key, std::uint32_t base)
{
    for (std::uint32_t i = 0; i < h.size(); ++i)
        h[i] = patternByte(key, base + i);
}

/**
 * Apply @p n symbol faults to @p h. The erasure model keys off
 * *which granules* are corrupt, not which symbols, so the positions
 * are arbitrary; the values must genuinely differ so the parity
 * consistency check is exercised for real.
 */
void
corruptSymbols(HalfLine &h, std::uint32_t n)
{
    const std::uint32_t limit =
        std::min<std::uint32_t>(n, static_cast<std::uint32_t>(h.size()));
    for (std::uint32_t i = 0; i < limit; ++i)
        h[i] ^= 0xA5;
}

} // namespace

Psm::Psm(const PsmParams &params)
    : _params(params)
{
    if (_params.dimms == 0)
        fatal("Psm requires at least one DIMM");
    const std::uint64_t page_lines_check =
        _params.rowBufferBytes / mem::cacheLineBytes;
    if (page_lines_check == 0 || page_lines_check > 64)
        fatal("Psm rowBufferBytes must hold 1..64 lines");

    nvdimms.reserve(_params.dimms);
    for (std::uint32_t i = 0; i < _params.dimms; ++i)
        nvdimms.push_back(std::make_unique<BareNvdimm>(_params.dimm));

    units = _params.dimms * nvdimms[0]->groupCount();
    rowBuffers.assign(units, RowBuffer{});
    eccBusyUntil.assign((units + 1) / 2, 0);
    unitFaults.assign(units, 0);

    capacity = 0;
    for (std::uint32_t d = 0; d < _params.dimms; ++d)
        for (std::uint32_t g = 0; g < nvdimms[d]->groupCount(); ++g)
            capacity += nvdimms[d]->group(g).params().capacityBytes;

    const std::uint64_t total_lines = capacity / mem::cacheLineBytes;
    const std::uint64_t page_lines =
        _params.rowBufferBytes / mem::cacheLineBytes;
    if (_params.spareLines >= total_lines)
        fatal("Psm spareLines must leave managed capacity");
    // Carve the spare pool from the top of the physical space, then
    // round the managed line count down to a whole number of pages.
    lineCount = total_lines - _params.spareLines;
    lineCount -= lineCount % page_lines;
    // Spares sit just past the Start-Gap slot range [0, lineCount].
    retire = RetireTable(lineCount + 1, _params.spareLines);
    StartGapParams sg;
    sg.lines = lineCount;
    sg.writeThreshold = _params.wearThreshold;
    sg.randomizerSeed = _params.wearSeed;
    sg.pageLines = page_lines;
    wearLevel = std::make_unique<StartGap>(sg);

    lineDecode.set(lineCount);
    pageDecode.set(page_lines);
    unitDecode.set(units);
    groupDecode.set(nvdimms[0]->groupCount());
    burstDrain = !_params.dimm.device.faults.enabled
        && !nvdimms[0]->needsReadModifyWrite()
        && _params.dimm.device.wearRegionBytes % _params.rowBufferBytes
            == 0;

    if (_params.dimm.device.faults.enabled || _params.symbolEccFallback)
        symbolTier = std::make_unique<SymbolEcc>(2, 2);
    seedUnitFaultRngs();
}

void
Psm::seedUnitFaultRngs()
{
    // Salt the configured seed per service unit so that dies do not
    // replay each other's fault trace (one shared trace would make
    // every group fail in lockstep and mask routing bugs).
    if (!_params.dimm.device.faults.enabled)
        return;
    const std::uint32_t groups = nvdimms[0]->groupCount();
    for (std::uint32_t u = 0; u < units; ++u)
        nvdimms[u / groups]->group(u % groups).seedFaults(
            _params.dimm.device.faults.seed
            ^ (0x9e3779b97f4a7c15ULL * (u + 1)));
}

Psm::Route
Psm::routePhysical(std::uint64_t physical_line) const
{
    // Interleave at row-buffer-page granularity: a sequential page
    // burst fills one group's row buffer while other pages spread
    // over the remaining DIMMs/groups (intra- and inter-DIMM
    // parallelism, Section V-B). All divisors are fixed at
    // construction, so the decode is shifts/masks on the usual
    // power-of-two geometries.
    const std::uint64_t global_page = pageDecode.div(physical_line);

    Route r;
    r.slot = physical_line;
    // One division by the unit count gives both the page and, by a
    // multiply-subtract, the unit; GCC does not merge a separate
    // `/` and `%` by a runtime divisor into one `div`.
    r.page = unitDecode.div(global_page);
    r.unit = static_cast<std::uint32_t>(
        global_page - r.page * unitDecode.value());
    r.dimm = static_cast<std::uint32_t>(groupDecode.div(r.unit));
    r.group = static_cast<std::uint32_t>(groupDecode.mod(r.unit));
    r.lineInPage =
        static_cast<std::uint32_t>(pageDecode.mod(physical_line));
    r.localAddr = (r.page * pageDecode.value() + r.lineInPage)
        * mem::cacheLineBytes;
    return r;
}

Psm::Route
Psm::routeRun(std::uint64_t logical_line, std::uint64_t &run) const
{
    // A retired slot inside the run would leave it; the table is
    // nearly always empty, so any entry at all makes runs one line.
    if (retire.mappedCount() != 0) {
        run = 1;
        return route(logical_line);
    }
    std::uint64_t physical_line = logical_line;
    if (_params.wearLeveling)
        physical_line = wearLevel->remapRun(logical_line, run);
    else
        run = lineCount - logical_line;
    const Route r = routePhysical(physical_line);
    run = std::min<std::uint64_t>(run,
                                  pageDecode.value() - r.lineInPage);
    return r;
}

Psm::Route
Psm::route(std::uint64_t logical_line) const
{
    const std::uint64_t physical_line = _params.wearLeveling
        ? wearLevel->remap(logical_line)
        : logical_line;

    // Retirement is layered after Start-Gap: the damage is physical,
    // so the table is keyed by the slot the wear leveler produced —
    // whatever logical line rotates onto a retired slot is served by
    // its spare.
    Route r = routePhysical(retire.remap(physical_line));
    r.slot = physical_line;
    return r;
}

mem::PramDevice &
Psm::unitDevice(const Route &r)
{
    return nvdimms[r.dimm]->group(r.group);
}

mem::AccessResult
Psm::closeRowBuffer(std::uint32_t unit, Tick when)
{
    RowBuffer &rb = rowBuffers[unit];
    mem::AccessResult drain;
    drain.mediaFreeAt = when;
    if (rb.dirtyMask != 0) {
        const std::uint32_t groups_per_dimm = nvdimms[0]->groupCount();
        BareNvdimm &dimm = *nvdimms[unit / groups_per_dimm];
        mem::PramDevice &dev = dimm.group(unit % groups_per_dimm);
        // The deferred dirty lines hit the media now, one cooling
        // window each (the device serializes internally). Early-
        // return semantics apply to the *requester*; the media
        // always pays the full write time.
        if (burstDrain) {
            drain = dev.writeBurst(when, rb.pageAddr,
                                   std::popcount(rb.dirtyMask));
        } else {
            // On the DramLike layout every line write first reads the
            // surrounding 256 B rank access (read-modify-write).
            std::uint64_t mask = rb.dirtyMask;
            for (std::uint32_t line = 0; mask != 0;
                 ++line, mask >>= 1) {
                if (!(mask & 1))
                    continue;
                const mem::Addr line_addr = rb.pageAddr
                    + mem::Addr(line) * mem::cacheLineBytes;
                Tick start = when;
                if (dimm.needsReadModifyWrite())
                    start = dev.read(when).completeAt;
                drain = dev.write(start, line_addr,
                                  /*early_return=*/true);
            }
        }
        rb.dirtyMask = 0;
    }
    rb.openPage = ~std::uint64_t(0);
    return drain;
}

Psm::LineFaults
Psm::sampleLineFaults(const Route &r)
{
    mem::PramDevice &dev = unitDevice(r);
    LineFaults lf;
    lf.a = dev.sampleReadFaults(r.localAddr);
    lf.b = dev.sampleReadFaults(
        r.localAddr + mem::pramDeviceGranularity);
    lf.p = dev.sampleReadFaults(parityKey(r.localAddr));
    return lf;
}

bool
Psm::rasDecodeLine(const Route &r, const LineFaults &lf,
                   mem::AccessResult &result)
{
    ++_stats.rasCheckedReads;
    if (!lf.any())
        return false;

    // Ground truth: the line's deterministic stored pattern and the
    // parity the write path would have committed alongside it.
    const std::uint64_t key =
        (std::uint64_t(r.unit) << 40) ^ r.localAddr;
    HalfLine truth_a, truth_b;
    fillPattern(truth_a, key, 0);
    fillPattern(truth_b, key, mem::pramDeviceGranularity);
    const HalfLine truth_p = XccCodec::encode(truth_a, truth_b);

    // What the media returns this read: the stored codeword with the
    // sampled symbol corruption applied.
    HalfLine a = truth_a, b = truth_b, p = truth_p;
    corruptSymbols(a, lf.a.total());
    corruptSymbols(b, lf.b.total());
    corruptSymbols(p, lf.p.total());

    // Erasure model: each 32 B granule carries internal CRC-class
    // detection, so a corrupted granule surfaces as a *known-bad*
    // lane rather than silent wrong data.
    const bool a_bad = lf.a.any();
    const bool b_bad = lf.b.any();
    const bool p_bad = lf.p.any();

    mem::PramDevice &dev = unitDevice(r);
    Tick &ecc = eccBusyUntil[r.unit / 2];

    if ((a_bad && b_bad) || ((a_bad || b_bad) && p_bad)) {
        // Two erasures among the three XCC lanes: the XOR pair code
        // is out of its depth. Either the symbol tier recovers the
        // data halves, or the containment bit goes up.
        bool recovered = false;
        if (_params.symbolEccFallback && symbolTier) {
            // Lane layout: [half A, half B, RS parity 0, RS parity 1]
            // on the Section VIII spare devices (modeled clean). Any
            // two erased lanes are recoverable; the erasure flags
            // come from the per-granule detection above.
            //
            // The code is evaluation-form (non-systematic): each
            // stored lane holds codeword evaluations, not the raw
            // half, so a granule's media faults corrupt its
            // *evaluation* lane in place. Substituting the raw
            // halves here would hand the decoder a clean-flagged
            // lane with wrong contents — exactly the silent
            // corruption the campaign exists to catch.
            const std::size_t lane = mem::pramDeviceGranularity;
            std::vector<std::uint8_t> data(2 * lane);
            std::copy(truth_a.begin(), truth_a.end(), data.begin());
            std::copy(truth_b.begin(), truth_b.end(),
                      data.begin() + lane);
            std::vector<std::uint8_t> stored =
                symbolTier->encodeLanes(data, lane);
            const auto corrupt_lane = [&](std::size_t idx,
                                          std::uint32_t n) {
                const std::size_t limit =
                    std::min<std::size_t>(n, lane);
                for (std::size_t i = 0; i < limit; ++i)
                    stored[idx * lane + i] ^= 0xA5;
            };
            if (a_bad)
                corrupt_lane(0, lf.a.total());
            if (b_bad)
                corrupt_lane(1, lf.b.total());
            const std::vector<bool> erased{a_bad, b_bad, false, false};
            std::vector<std::uint8_t> out;
            if (symbolTier->decodeLanes(stored, lane, erased, out)) {
                recovered = true;
                ++_stats.symbolCorrections;
                result.corrected = true;
                if (!std::equal(out.begin(), out.end(), data.begin()))
                    ++_stats.sdcEvents;
                const Tick start = std::max(result.completeAt, ecc);
                result.completeAt = start + _params.symbolEccLatency;
                ecc = result.completeAt;
            }
        }
        if (!recovered) {
            ++_stats.uncorrectableReads;
            raiseMce();
            result.containment = true;
            result.corrected = false;
            return false;  // the MCE handler owns the slot's fate
        }
    } else if (a_bad || b_bad) {
        // One data half erased, parity healthy: the XCC repair path,
        // one XOR cycle on the reconstruction lane.
        const XccDecode xd = XccCodec::decode(a, b, p, a_bad, b_bad);
        if (!xd.ok || a != truth_a || b != truth_b)
            ++_stats.sdcEvents;
        ++_stats.correctedReads;
        result.corrected = true;
        const Tick start = std::max(result.completeAt, ecc);
        result.completeAt = start + _params.xorLatency;
        ecc = result.completeAt;
    } else {
        // Only the parity granule is corrupt: data is served as-is,
        // but the codeword must *detect* the damage — a corrupted
        // parity that still checks out would be silent rot waiting
        // for the next half-line failure.
        if (XccCodec::consistent(a, b, p))
            ++_stats.sdcEvents;
        ++_stats.parityRewrites;
        // Reprogram the parity granule on the ECC device.
        ecc = std::max(ecc, result.completeAt)
            + dev.params().writeLatency;
    }
    return lf.anyStuck();
}

void
Psm::retireSlot(const Route &r, Tick when)
{
    if (!retire.canRetire()) {
        ++_stats.spareExhausted;
        return;
    }
    const std::uint64_t spare = retire.retire(r.slot);
    ++_stats.retiredLines;
    // The bad slot's stuck state is out of service now; dropping it
    // keeps the per-device map bounded.
    mem::PramDevice &dev = unitDevice(r);
    dev.retireGranule(r.localAddr);
    dev.retireGranule(r.localAddr + mem::pramDeviceGranularity);
    dev.retireGranule(parityKey(r.localAddr));
    // Copy the displaced line onto its spare: one background write
    // on the spare's service unit.
    const Route spare_r = routePhysical(spare);
    unitDevice(spare_r).write(when, spare_r.localAddr,
                              /*early_return=*/true);
}

bool
Psm::retireFaultyLine(mem::Addr addr, Tick when)
{
    const Route r = route(logicalLine(addr));
    if (!retire.canRetire()) {
        ++_stats.spareExhausted;
        return false;
    }
    retireSlot(r, when);
    return true;
}

Psm::ScrubOutcome
Psm::scrubLine(std::uint64_t logical_line, Tick when)
{
    ScrubOutcome out;
    const Route r = route(logical_line);
    mem::PramDevice &dev = unitDevice(r);
    RowBuffer &rb = rowBuffers[r.unit];

    // Idle-slot discipline: the patrol never delays demand traffic.
    // A line sitting dirty in its row buffer is about to be rewritten
    // at drain anyway, so scrubbing it now would be wasted wear.
    const bool line_dirty = rb.openPage == r.page
        && (rb.dirtyMask & (std::uint64_t(1) << r.lineInPage));
    if (dev.busyAt(when) || line_dirty) {
        ++_stats.scrubDeferrals;
        return out;
    }

    out.serviced = true;
    ++_stats.scrubbedLines;
    const mem::AccessResult media = dev.read(when);
    if (!_params.dimm.device.faults.enabled)
        return out;

    const LineFaults lf = sampleLineFaults(r);
    if (!lf.any())
        return out;

    mem::AccessResult res;
    res.completeAt = media.completeAt;
    const bool want_retire = rasDecodeLine(r, lf, res);
    if (res.containment)
        return out;
    if (want_retire) {
        retireSlot(r, res.completeAt);
        out.retired = true;
        return out;
    }
    // Transient-only corruption: a rewrite refreshes the cells.
    dev.write(res.completeAt, r.localAddr, /*early_return=*/true);
    ++_stats.scrubRepairs;
    return out;
}

stats::Histogram
Psm::wearHistogram() const
{
    stats::Histogram hist;
    for (const auto &dimm : nvdimms)
        for (std::uint32_t g = 0; g < dimm->groupCount(); ++g)
            dimm->group(g).addWearSamples(hist);
    return hist;
}

mem::AccessResult
Psm::access(const mem::MemRequest &req, Tick when)
{
    return accessLine(req.op, logicalLine(req.addr), when);
}

Tick
Psm::accessLines(mem::MemOp op, mem::Addr first_line,
                 std::uint64_t lines, Tick when)
{
    std::uint64_t line = logicalLine(first_line);
    if (lines == 1)
        return accessLine(op, line, when).completeAt;
    const bool write_hits =
        op == mem::MemOp::Write && _params.earlyReturnWrites;
    // Media-fault reads draw faults and may retire slots per line.
    const bool read_runs =
        op == mem::MemOp::Read && !_params.dimm.device.faults.enabled;
    while (lines != 0) {
        std::uint64_t run = 0;
        Route r = routeRun(line, run);
        run = std::min(run, lines);
        const std::uint64_t epoch = mappingEpoch();
        std::uint64_t done = 0;
        while (true) {
            when = serveLine(op, r, when).completeAt;
            if (++done == run || mappingEpoch() != epoch)
                break;
            stepRoute(r, 1);
            std::uint64_t absorbed = 0;
            if (write_hits) {
                // The line just served left r.page open on r.unit, so
                // every following write of the run is a hit until one
                // moves the gap; that one takes the body and a new
                // route.
                absorbed = run - done;
                if (_params.wearLeveling)
                    absorbed =
                        std::min(absorbed, wearLevel->writesBeforeMove());
                if (absorbed != 0)
                    when = absorbWriteHits(r, absorbed, when);
            } else if (read_runs) {
                absorbed = absorbReads(r, run - done, when);
            }
            if (absorbed == 0)
                continue;
            done += absorbed;
            if (done == run)
                break;
            stepRoute(r, absorbed);
        }
        lines -= done;
        line += done;
        if (line >= lineCount)
            line -= lineCount;
    }
    return when;
}

Tick
Psm::absorbWriteHits(const Route &r, std::uint64_t lines, Tick when)
{
    // lines < pageLines <= 64: the run's first line is not among them.
    rowBuffers[r.unit].dirtyMask |=
        (~std::uint64_t(0) >> (64 - lines)) << r.lineInPage;
    _stats.writes += lines;
    _stats.rowBufferWriteHits += lines;
    if (_params.wearLeveling)
        wearLevel->recordWrites(lines);
    return when + lines * (_params.busLatency + _params.rowBufferLatency);
}

std::uint64_t
Psm::absorbReads(const Route &r, std::uint64_t lines, Tick &when)
{
    if (unitFaults[r.unit] != 0)
        return 0;
    // Forwarded lines take the per-line body: stop short of the first
    // dirty line of the open page.
    const RowBuffer &rb = rowBuffers[r.unit];
    if (rb.openPage == r.page) {
        const std::uint64_t dirty = rb.dirtyMask >> r.lineInPage;
        if (dirty != 0)
            lines = std::min<std::uint64_t>(lines,
                                            std::countr_zero(dirty));
    }
    if (lines == 0)
        return 0;

    mem::PramDevice &dev = unitDevice(r);
    const Tick bus = _params.busLatency;
    const Tick media = bus + dev.params().readLatency;
    Tick t = when;
    std::uint64_t rebuilt = 0;
    if (dev.busyAt(t + bus)) {
        // The die still cools: read i, issued at when + i * c, is
        // rebuilt on the ECC lane while busyUntil > when + i * c + bus.
        // A lane still busy from the paired unit or a die that blocks
        // (LightPC-B) takes the per-line body.
        Tick &ecc = eccBusyUntil[r.unit / 2];
        if (!_params.eccReconstruction || ecc > t + bus)
            return 0;
        const Tick c = media + _params.xorLatency;
        rebuilt = std::min(lines,
                           (dev.busyUntil() - (t + bus) + c - 1) / c);
        t += rebuilt * c;
        ecc = t;
        _stats.reconstructedReads += rebuilt;
        readHist.add(c, rebuilt);
    }
    // The rest find the die free: steady media reads, bus + readLatency
    // each.
    if (const std::uint64_t rest = lines - rebuilt; rest != 0) {
        t = dev.readRun(t + bus, rest, bus);
        readHist.add(media, rest);
    }
    _stats.reads += lines;
    when = t;
    return lines;
}

mem::AccessResult
Psm::accessLine(mem::MemOp op, std::uint64_t logical_line, Tick when)
{
    return serveLine(op, route(logical_line), when);
}

mem::AccessResult
Psm::serveLine(mem::MemOp op, const Route &r, Tick when)
{
    mem::AccessResult result;
    Tick t = when + _params.busLatency;
    mem::PramDevice &dev = unitDevice(r);
    RowBuffer &rb = rowBuffers[r.unit];
    const mem::Addr page_base = r.page * _params.rowBufferBytes;

    if (op == mem::MemOp::Write) {
        ++_stats.writes;

        // Start-Gap bookkeeping: every threshold-th write moves the
        // gap, costing one extra line copy on the media.
        if (_params.wearLeveling && wearLevel->recordWrite()) {
            ++_stats.wearMoves;
            const mem::AccessResult copy_read = dev.read(t);
            dev.write(copy_read.completeAt, r.localAddr,
                      /*early_return=*/true);
        }

        if (!_params.earlyReturnWrites) {
            // LightPC-B: a conventional controller cannot track the
            // PRAM thermal state, so every write is synchronous at
            // the media — no row-buffer absorption, no early return.
            // The full cooling window occupies the device and stalls
            // the issuer (Section V-A).
            Tick start = t;
            if (nvdimms[r.dimm]->needsReadModifyWrite())
                start = dev.read(t).completeAt;
            const mem::AccessResult media =
                dev.write(start, r.localAddr, /*early_return=*/false);
            result.completeAt = media.completeAt;
            result.mediaFreeAt = media.mediaFreeAt;
            return result;
        }

        if (rb.openPage == r.page) {
            // Aggregated by the open row buffer.
            ++_stats.rowBufferWriteHits;
            rb.dirtyMask |= std::uint64_t(1) << r.lineInPage;
            result.rowBufferHit = true;
            result.completeAt = t + _params.rowBufferLatency;
            result.mediaFreeAt = dev.busyUntil();
            return result;
        }

        // Page change: close the previous page (its dirty lines
        // drain to the media in the background), then open the new
        // one and absorb this write — early return to the issuer.
        closeRowBuffer(r.unit, t);
        rb.openPage = r.page;
        rb.pageAddr = page_base;
        rb.dirtyMask = std::uint64_t(1) << r.lineInPage;
        result.completeAt = t + _params.rowBufferLatency;
        result.mediaFreeAt = dev.busyUntil();
        return result;
    }

    // Read path.
    ++_stats.reads;

    if (rb.openPage == r.page
        && (rb.dirtyMask & (std::uint64_t(1) << r.lineInPage))) {
        // Forwarded from the open row buffer.
        ++_stats.rowBufferReadHits;
        result.rowBufferHit = true;
        result.completeAt = t + _params.rowBufferLatency;
        result.mediaFreeAt = dev.busyUntil();
        readHist.add(result.completeAt - when);
        return result;
    }

    // Reliability: media faults on this unit.
    if (const std::uint8_t faults = unitFaults[r.unit]) {
        Tick &ecc = eccBusyUntil[r.unit / 2];
        const Tick start = std::max(t, ecc);
        if (faults == 0x3) {
            // Both halves dead. The XOR pair code is out of its
            // depth: either the symbol-ECC tier recovers the line
            // from the surviving devices, or the containment bit
            // goes up and the host takes the MCE path.
            if (_params.symbolEccFallback) {
                ++_stats.symbolCorrections;
                result.corrected = true;
                result.completeAt = start
                    + dev.params().readLatency
                    + _params.symbolEccLatency;
                ecc = result.completeAt;
            } else {
                raiseMce();
                result.containment = true;
                result.completeAt =
                    start + dev.params().readLatency;
            }
        } else {
            // One half dead: regenerate it from the healthy half
            // and the parity device, one read + one XOR.
            ++_stats.correctedReads;
            result.corrected = true;
            result.completeAt = start + dev.params().readLatency
                + _params.xorLatency;
            ecc = result.completeAt;
        }
        result.mediaFreeAt = dev.busyUntil();
        readHist.add(result.completeAt - when);
        return result;
    }

    const bool media_faults = _params.dimm.device.faults.enabled;

    if (dev.busyAt(t) && _params.eccReconstruction) {
        // Non-blocking service: regenerate the target from the
        // paired half + parity on the ECC lane instead of waiting
        // for the in-flight write to cool off.
        ++_stats.reconstructedReads;
        Tick &ecc = eccBusyUntil[r.unit / 2];
        const Tick start = std::max(t, ecc);
        result.completeAt =
            start + dev.params().readLatency + _params.xorLatency;
        ecc = result.completeAt;
        result.reconstructed = true;
    } else {
        if (dev.busyAt(t)) {
            // LightPC-B: head-of-line blocking behind the write.
            ++_stats.blockedReads;
            _stats.readStallTicks += dev.busyUntil() - t;
        }
        const mem::AccessResult media = dev.read(t);
        result.completeAt = media.completeAt;
    }

    if (media_faults) {
        // Every media-touching read runs the full codeword through
        // the real codecs: corrections are counted, not assumed, and
        // any decode/ground-truth mismatch is a recorded SDC event.
        const LineFaults lf = sampleLineFaults(r);
        if (rasDecodeLine(r, lf, result))
            retireSlot(r, result.completeAt);
    }

    result.mediaFreeAt = dev.busyUntil();
    readHist.add(result.completeAt - when);
    return result;
}

Tick
Psm::flush(Tick when)
{
    ++_stats.flushes;
    Tick quiescent = when;
    for (std::uint32_t u = 0; u < units; ++u) {
        if (rowBuffers[u].dirtyMask == 0) {
            // A clean close emits no media work and would return
            // `when`, so only the page has to be closed.
            rowBuffers[u].openPage = ~std::uint64_t(0);
            continue;
        }
        const mem::AccessResult drain = closeRowBuffer(u, when);
        quiescent = std::max(quiescent, drain.mediaFreeAt);
    }
    for (const auto &dimm : nvdimms)
        quiescent = std::max(quiescent, dimm->busyUntil());
    for (Tick ecc : eccBusyUntil)
        quiescent = std::max(quiescent, ecc);
    _stats.lastFlushQuiescentAt = quiescent;
    return quiescent;
}

void
Psm::resetPort()
{
    for (auto &dimm : nvdimms)
        dimm->reset();
    seedUnitFaultRngs();
    std::fill(rowBuffers.begin(), rowBuffers.end(), RowBuffer{});
    std::fill(eccBusyUntil.begin(), eccBusyUntil.end(), Tick(0));
    StartGapParams sg = wearLevel->params();
    wearLevel = std::make_unique<StartGap>(sg);
    // A cold boot wipes OC-PMEM, and the DIMM reset above restored
    // pristine media, so the remap table starts over too.
    retire.reset();
    _stats = PsmStats{};
    readHist.reset();
}

void
Psm::resetStats()
{
    _stats = PsmStats{};
    readHist.reset();
}

void
Psm::injectFault(std::uint32_t dimm_idx, std::uint32_t group,
                 std::uint32_t half)
{
    if (dimm_idx >= _params.dimms
        || group >= nvdimms[dimm_idx]->groupCount() || half > 1)
        fatal("Psm::injectFault out of range");
    const std::uint32_t unit =
        dimm_idx * nvdimms[0]->groupCount() + group;
    unitFaults[unit] |= std::uint8_t(1) << half;
}

void
Psm::clearFaults()
{
    std::fill(unitFaults.begin(), unitFaults.end(), 0);
}

std::uint32_t
Psm::faultCount() const
{
    std::uint32_t n = 0;
    for (const std::uint8_t f : unitFaults)
        n += (f & 1) + ((f >> 1) & 1);
    return n;
}

bool
Psm::handleContainment()
{
    if (_params.mcePolicy == McePolicy::Contain)
        return false;
    // The paper's current version: wipe OC-PMEM through the reset
    // port and reinitialize the system with a cold boot.
    containmentReset();
    return true;
}

void
Psm::containmentReset()
{
    const std::uint64_t preserved_mce = _stats.mceCount;
    const std::uint64_t preserved_resets = _stats.resets + 1;
    resetPort();
    _stats.mceCount = preserved_mce;
    _stats.resets = preserved_resets;
}

Tick
Psm::reseedWearLeveler(Tick when, std::uint64_t new_seed)
{
    // Changing the static randomizer relocates every page: the
    // media must be migrated to the new mapping. Each unit streams
    // its contents through one read + one write per line, all units
    // in parallel.
    const std::uint64_t lines_per_unit = lineCount / units;
    const Tick per_line = _params.dimm.device.readLatency
        + _params.dimm.device.writeLatency;
    const Tick done = when + lines_per_unit * per_line;

    StartGapParams sg = wearLevel->params();
    sg.randomizerSeed = new_seed;
    wearLevel = std::make_unique<StartGap>(sg);
    _params.wearSeed = new_seed;
    return done;
}

} // namespace lightpc::psm
