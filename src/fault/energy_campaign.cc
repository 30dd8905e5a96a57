#include "fault/energy_campaign.hh"

#include <algorithm>
#include <cmath>

#include "energy/storage.hh"
#include "fault/fault_injector.hh"
#include "fault/power_rail.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "pecos/energy_guard.hh"
#include "pecos/sng.hh"
#include "persist/checkpoint.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

const stats::CounterSet<EnergyCellStats> &
energyCounters()
{
    using R = EnergyCellStats;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::trials>("trials"),
        counter<&R::cuts>("cuts"),
        counter<&R::commitsDurable>("commits_durable"),
        counter<&R::resumes>("resumes"),
        counter<&R::coldBoots>("cold_boots"),
        counter<&R::survivedTrials>("survived"),
        counter<&R::stopsDeferred>("stops_deferred"),
        counter<&R::deferredStopsAdmitted>("deferred_stops_admitted"),
        counter<&R::proactiveStops>("proactive_stops"),
        counter<&R::proactiveSaves>("proactive_saves"),
        counter<&R::violations>("violations"),
        counter<&R::minSocPermille>("min_soc_permille",
                                    stats::Fold::Min));
    return set;
}

namespace
{

/** A MemoryPort view over the PSM (TimedMem plumbing). */
class PsmMemPort : public mem::MemoryPort
{
  public:
    explicit PsmMemPort(psm::Psm &psm) : psm(psm) {}

    mem::AccessResult
    access(const mem::MemRequest &req, Tick when) override
    {
        return psm.access(req, when);
    }

    Tick fence(Tick when) override { return psm.flush(when); }

  private:
    psm::Psm &psm;
};

/** Shared fabric of one image-baseline event. */
struct ImageRig
{
    mem::BackingStore store;
    psm::Psm psm;
    PsmMemPort port{psm};
    mem::TimedMem pmem{port, &store};
};

// Emergency-persist footprints. Unlike the commit-window campaigns
// (which scale their cut windows off the dump length and can use
// small images), the provisioning question is absolute: the
// checkpointing baselines must land a *machine-sized* image on AC
// loss, while Stop-and-Go persists only the bounded CPU/device
// state — that asymmetry is the headline.
constexpr std::uint64_t sysPcBaseBytes = 4 << 20;
constexpr std::uint64_t sysPcDumpBytes = 48 << 20;
constexpr std::uint64_t sCheckVmBytes = 24 << 20;
constexpr Tick sCheckPeriod = 50 * tickMs;

// A-CheckPC's AC-loss action: a sweep of per-function captures
// covering the dirty footprint, each body + fence + ledger record.
constexpr std::uint64_t acheckSweep = 96;
constexpr Tick acheckThink = 20 * tickUs;

// Pending op-log tail at the outage (un-acked until logCommit).
constexpr std::uint64_t oplogPuts = 12;
constexpr std::uint64_t oplogKeys = 4;

/** Post-commit trickle: the halted machine's retention load. */
constexpr double haltWatts = 0.2;

double
phaseWatts(const power::PowerModel &model, std::uint32_t active,
           std::uint32_t idle, std::uint32_t pram_dimms)
{
    power::ActivitySample sample;
    sample.coresActive = active;
    sample.coresIdle = idle;
    sample.coreUtilization = 1.0;
    sample.pramDimms = pram_dimms;
    return model.staticWattsOf(sample);
}

/** One mode's outage-relative load profile and commit deadline. */
struct ModeDry
{
    std::vector<LoadStep> steps;
    Tick commitLen = 0;  ///< durable iff the rails outlive this
};

/** Everything the trials share, computed once per campaign. */
struct DryData
{
    double busyWatts = 0.0;
    std::uint32_t cores = 0;
    std::uint32_t dimms = 0;
    Tick oplogLen = 0;  ///< emergency group-commit duration
    pecos::DrainEstimate sngDrain;
    pecos::DrainEstimate oplogDrain;
    ModeDry mode[5];
};

std::size_t
modeOrd(net::PersistMode mode)
{
    return static_cast<std::size_t>(mode);
}

bool
guardMode(net::PersistMode mode)
{
    return mode == net::PersistMode::SnG
        || mode == net::PersistMode::OpLog;
}

std::uint64_t
modeSalt(net::PersistMode mode)
{
    switch (mode) {
    case net::PersistMode::SnG: return 0x536e47ULL;
    case net::PersistMode::SysPc: return 0x537973ULL;
    case net::PersistMode::SCheckPc: return 0x5343506bULL;
    case net::PersistMode::ACheckPc: return 0x414350ULL;
    case net::PersistMode::OpLog: return 0x4f704c6fULL;
    }
    return 0;
}

net::KvParams
oplogParams()
{
    net::KvParams params;
    params.writePath = net::WritePath::OpLog;
    params.keyCapacity = 64;
    params.dedupCapacity = 256;
    params.oplog.capacity = 8 * net::OpLog::recordBytes;
    return params;
}

net::RpcRequest
oplogPutReq(std::uint64_t id, std::uint64_t key, std::uint64_t seed)
{
    net::RpcRequest req;
    req.reqId = id;
    req.client = static_cast<std::uint32_t>(id % 5);
    req.op = workload::KvOp::Put;
    req.key = key;
    req.valueSeed = seed;
    req.deadline = maxTick;
    return req;
}

std::uint64_t
acheckBodyBytes(std::uint64_t k)
{
    return 4096 + (k * 2654435761ULL) % (28 << 10);
}

mem::Addr
acheckSlotAddr(mem::Addr slot_base, std::uint64_t seq)
{
    return slot_base + (seq & 1) * (1 << 20);
}

DryData
buildDry()
{
    const power::PowerModel power_model;
    DryData dry;

    // SnG phase boundaries (deterministic construction: every
    // trial's Stop timeline is identical to this one).
    pecos::StopReport stop;
    {
        kernel::Kernel kern;
        psm::Psm psm;
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        stop = sng.stop(0);
        dry.cores = kern.cores();
        dry.dimms = psm.params().dimms;
    }
    const double w_all =
        phaseWatts(power_model, dry.cores, 0, dry.dimms);
    const double w_master =
        phaseWatts(power_model, 1, dry.cores - 1, dry.dimms);
    const double w_offline = phaseWatts(power_model, 1, 0, dry.dimms);
    dry.busyWatts = w_all;

    ModeDry &sng_md = dry.mode[modeOrd(net::PersistMode::SnG)];
    sng_md.steps = {{0, w_all},
                    {stop.processStopDone, w_master},
                    {stop.workerOfflineDone, w_offline},
                    {stop.commitAt, haltWatts}};
    sng_md.commitLen = stop.commitAt;
    dry.sngDrain =
        pecos::estimateStopDrain(stop, w_all, w_master, w_offline);

    // SnG + op-log: an emergency group commit of the pending tail
    // runs at full load before the Stop begins.
    {
        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem, oplogParams());
        Tick t = 0;
        for (std::uint64_t p = 1; p <= oplogPuts; ++p)
            svc.execute(t, oplogPutReq(p, 1 + (p - 1) % oplogKeys, p));
        const Tick prep = t;
        svc.logCommit(t);
        dry.oplogLen = t - prep;
    }
    ModeDry &oplog_md = dry.mode[modeOrd(net::PersistMode::OpLog)];
    oplog_md.steps = {{0, w_all},
                      {dry.oplogLen + stop.processStopDone, w_master},
                      {dry.oplogLen + stop.workerOfflineDone,
                       w_offline},
                      {dry.oplogLen + stop.commitAt, haltWatts}};
    oplog_md.commitLen = dry.oplogLen + stop.commitAt;
    dry.oplogDrain = dry.sngDrain;
    dry.oplogDrain.joules += w_all * ticksToSec(dry.oplogLen);
    dry.oplogDrain.ticks += dry.oplogLen;

    // SysPC: the emergency hibernate image (base image pre-exists).
    {
        ImageRig rig;
        persist::SysPc syspc(rig.pmem);
        Tick t = syspc.dumpImageCommitted(0, sysPcBaseBytes, 7);
        const Tick ac = t + tickMs;
        syspc.dumpImageCommitted(ac, sysPcDumpBytes, 8);
        ModeDry &md = dry.mode[modeOrd(net::PersistMode::SysPc)];
        md.commitLen = syspc.lastCommitAt() - ac;
        md.steps = {{0, w_all}, {md.commitLen, haltWatts}};
    }

    // S-CheckPC: the emergency BLCR-style dump.
    {
        ImageRig rig;
        persist::SCheckPc scheck(rig.pmem, sCheckPeriod);
        Tick t = scheck.dumpCommitted(0, sCheckVmBytes, 7);
        const Tick ac = t + tickMs;
        scheck.dumpCommitted(ac, sCheckVmBytes, 8);
        ModeDry &md = dry.mode[modeOrd(net::PersistMode::SCheckPc)];
        md.commitLen = scheck.lastCommitAt() - ac;
        md.steps = {{0, w_all}, {md.commitLen, haltWatts}};
    }

    // A-CheckPC: the decorator sweep of per-function captures.
    {
        ImageRig rig;
        const persist::ACheckPcParams params;
        persist::CheckpointLedger ledger(rig.pmem, params.pmemBase);
        const mem::Addr slot_base = params.pmemBase + (1 << 20);
        Tick t = 0;
        for (std::uint64_t k = 1; k <= acheckSweep; ++k) {
            t += acheckThink;
            t = persist::writeBodyPattern(rig.pmem, t,
                                          acheckSlotAddr(slot_base, k),
                                          acheckBodyBytes(k), k);
            t = rig.pmem.fence(t);
            t = ledger.commit(t, k, k & 1, acheckBodyBytes(k), k);
        }
        ModeDry &md = dry.mode[modeOrd(net::PersistMode::ACheckPc)];
        md.commitLen = ledger.lastCommitAt();
        md.steps = {{0, w_all}, {md.commitLen, haltWatts}};
    }

    return dry;
}

Tick
toTick(double ticks)
{
    if (!(ticks > 0.0))
        return 0;
    if (ticks >= static_cast<double>(maxTick))
        return maxTick;
    return static_cast<Tick>(ticks);
}

/** Rail fail tick of @p plane under @p md's outage profile. */
Tick
cutOffset(const ModeDry &md, const energy::StoragePlane &plane)
{
    PowerRail rail(plane, md.steps.front().watts);
    for (std::size_t i = 1; i < md.steps.size(); ++i)
        rail.addStep(md.steps[i].at, md.steps[i].watts);
    return rail.failTick(0);
}

/**
 * Rail fail tick when the outage profile runs *inside a sag* for its
 * first @p rest ticks: the plane only covers the (1 - supply)
 * deficit until the sag deepens into the full outage.
 */
Tick
sagCutOffset(const ModeDry &md, const energy::StoragePlane &plane,
             double supply_fraction, Tick rest)
{
    std::vector<LoadStep> steps;
    double last_watts = md.steps.front().watts;
    for (const LoadStep &step : md.steps) {
        if (step.at < rest) {
            steps.push_back(
                {step.at, step.watts * (1.0 - supply_fraction)});
            last_watts = step.watts;
        }
    }
    steps.push_back({rest, last_watts});
    for (const LoadStep &step : md.steps) {
        if (step.at > rest)
            steps.push_back(step);
        else if (step.at == rest)
            steps.back().watts = step.watts;
    }
    PowerRail rail(plane, steps.front().watts);
    for (std::size_t i = 1; i < steps.size(); ++i)
        rail.addStep(steps[i].at, steps[i].watts);
    return rail.failTick(0);
}

/** Drain @p plane along @p steps from tick 0 until @p until. */
void
deliverProfile(energy::StoragePlane &plane,
               const std::vector<LoadStep> &steps, Tick until)
{
    Tick t = 0;
    for (std::size_t i = 0; i < steps.size() && t < until; ++i) {
        const Tick seg_end = std::min(
            until, i + 1 < steps.size() ? steps[i + 1].at : maxTick);
        if (seg_end <= t)
            continue;
        if (steps[i].watts > 0.0)
            plane.deliver(steps[i].watts, seg_end - t);
        t = seg_end;
    }
}

void
zeroPlane(energy::StoragePlane &plane)
{
    for (std::size_t i = 0; i < plane.cells().size(); ++i)
        plane.setTierSocJoules(i, 0.0);
}

void
recordMinSoc(EnergyCellStats &cell, const energy::StoragePlane &plane)
{
    const double soc = std::clamp(plane.soc(), 0.0, 1.0);
    cell.minSocPermille =
        std::min(cell.minSocPermille,
                 static_cast<std::uint64_t>(soc * 1000.0));
}

/** One trial's counters and kept violation notes. */
struct TrialScratch
{
    EnergyCellStats cell;
    std::vector<std::string> notes;

    template <typename... Parts>
    void
    violation(const Parts &...parts)
    {
        stats::noteViolation(cell.violations, notes, parts...);
    }
};

/**
 * One SnG Stop racing a power cut at outage-relative @p cut. Counts
 * the commit/resume outcome; true when the machine came back with
 * byte-exact state.
 */
bool
runSngCore(Tick cut, Rng &rng, TrialScratch &scratch)
{
    EnergyCellStats &cell = scratch.cell;

    kernel::Kernel kern;
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng(kern, psm, store, {});
    FaultInjector injector(store);

    const kernel::SystemSnapshot before = kern.snapshot();
    injector.armCut(cut, rng.next());

    const pecos::StopReport stop = sng.stop(0);
    const bool durable = stop.commitAt < cut;
    if (durable)
        ++cell.commitsDurable;
    if (sng.hasCommit() != durable)
        scratch.violation("energy SnG cut@", cut, ": commit durable=",
                          sng.hasCommit(), " expected=", durable);

    kern.scramble(rng);
    injector.powerRestored();

    const pecos::GoReport go = sng.resume(cut + 100 * tickMs);
    if (go.coldBoot == durable)
        scratch.violation("energy SnG cut@", cut, ": coldBoot=", go.coldBoot,
                          " but durable=", durable);

    bool ok = durable && !go.coldBoot;
    if (!go.coldBoot) {
        if (!kern.snapshot().registersMatch(before)) {
            scratch.violation("energy SnG cut@", cut,
                              ": resumed with corrupt register state");
            ok = false;
        }
        ++cell.resumes;
    } else {
        ++cell.coldBoots;
    }
    return ok;
}

/**
 * SnG + op-log: the pending tail's emergency group commit runs
 * first, then the Stop rides whatever hold-up is left. Losing the
 * (un-acked) tail is legal; losing machine state is not.
 */
bool
runOpLogEvent(Tick cut, Rng &rng, TrialScratch &scratch)
{
    ImageRig rig;
    net::KvService svc(rig.store, rig.pmem, oplogParams());
    Tick t = 0;
    for (std::uint64_t p = 1; p <= oplogPuts; ++p)
        svc.execute(t,
                    oplogPutReq(p, 1 + (p - 1) % oplogKeys,
                                rng.next()));
    const Tick prep = t;
    FaultInjector injector(rig.store);
    injector.armCut(prep + cut, rng.next());
    svc.logCommit(t);
    const Tick spent = t - prep;

    const Tick rem = cut > spent ? cut - spent : 1;
    return runSngCore(rem, rng, scratch);
}

bool
runSysPcEvent(Tick cut, Rng &rng, TrialScratch &scratch)
{
    EnergyCellStats &cell = scratch.cell;

    ImageRig rig;
    persist::SysPc syspc(rig.pmem);
    FaultInjector injector(rig.store);

    const Tick t = syspc.dumpImageCommitted(0, sysPcBaseBytes,
                                            rng.next());
    const Tick ac = t + tickMs;
    const Tick cut_abs = ac + cut;
    injector.armCut(cut_abs, rng.next());

    syspc.dumpImageCommitted(ac, sysPcDumpBytes, rng.next());
    const Tick body_done = syspc.lastBodyDoneAt();
    const Tick commit_at = syspc.lastCommitAt();
    const bool durable = commit_at < cut_abs;
    if (durable)
        ++cell.commitsDurable;

    injector.powerRestored();
    syspc.recover(cut_abs + 100 * tickMs);
    const std::uint64_t got = syspc.recoveredSeq();

    bool ok;
    if (durable)
        ok = got == 2;
    else if (cut_abs <= body_done)
        ok = got == 1;
    else
        ok = got == 1 || got == 2;
    if (ok && got == 2)
        ok = syspc.committedImageIntact(syspc.committedImage());

    if (!ok)
        scratch.violation("energy SysPC cut@", cut, " recovered seq ", got,
                          " (commit@", commit_at, ")");
    got != 0 ? ++cell.resumes : ++cell.coldBoots;
    return durable && got == 2 && ok;
}

bool
runSCheckPcEvent(Tick cut, Rng &rng, TrialScratch &scratch)
{
    EnergyCellStats &cell = scratch.cell;

    ImageRig rig;
    persist::SCheckPc scheck(rig.pmem, sCheckPeriod);
    FaultInjector injector(rig.store);

    const Tick t = scheck.dumpCommitted(0, sCheckVmBytes, rng.next());
    const Tick ac = t + tickMs;
    const Tick cut_abs = ac + cut;
    injector.armCut(cut_abs, rng.next());

    scheck.dumpCommitted(ac, sCheckVmBytes, rng.next());
    const Tick body_done = scheck.lastBodyDoneAt();
    const Tick commit_at = scheck.lastCommitAt();
    const bool durable = commit_at < cut_abs;
    if (durable)
        ++cell.commitsDurable;

    injector.powerRestored();
    scheck.recoverAfterLoss(cut_abs + 100 * tickMs);
    const std::uint64_t got = scheck.recoveredSeq();

    bool ok;
    if (durable)
        ok = got == 2;
    else if (cut_abs <= body_done)
        ok = got == 1;
    else
        ok = got == 1 || got == 2;
    if (ok && got == 2)
        ok = scheck.commitIntact(scheck.latestCommit());

    if (!ok)
        scratch.violation("energy S-CheckPC cut@", cut, " recovered seq ", got,
                          " (commit@", commit_at, ")");
    got != 0 ? ++cell.resumes : ++cell.coldBoots;
    return durable && got == 2 && ok;
}

bool
runACheckPcEvent(Tick cut, Rng &rng, TrialScratch &scratch)
{
    EnergyCellStats &cell = scratch.cell;

    ImageRig rig;
    const persist::ACheckPcParams params;
    persist::CheckpointLedger ledger(rig.pmem, params.pmemBase);
    const mem::Addr slot_base = params.pmemBase + (1 << 20);
    FaultInjector injector(rig.store);
    injector.armCut(cut, rng.next());

    std::vector<std::uint64_t> seeds(acheckSweep + 1, 0);
    std::vector<Tick> commit_at(acheckSweep + 1, 0);
    std::vector<Tick> body_done(acheckSweep + 1, 0);
    Tick t = 0;
    for (std::uint64_t k = 1; k <= acheckSweep; ++k) {
        seeds[k] = rng.next();
        t += acheckThink;
        t = persist::writeBodyPattern(rig.pmem, t,
                                      acheckSlotAddr(slot_base, k),
                                      acheckBodyBytes(k), seeds[k]);
        t = rig.pmem.fence(t);
        body_done[k] = t;
        t = ledger.commit(t, k, k & 1, acheckBodyBytes(k), seeds[k]);
        commit_at[k] = ledger.lastCommitAt();
    }
    const bool durable = commit_at[acheckSweep] < cut;
    if (durable)
        ++cell.commitsDurable;

    injector.powerRestored();
    const persist::CheckpointLedger::Record rec = ledger.latest();
    const std::uint64_t got = rec.seq;

    std::uint64_t expect = 0;
    std::uint64_t window_k = 0;
    for (std::uint64_t k = 1; k <= acheckSweep; ++k) {
        if (commit_at[k] < cut)
            expect = k;
        if (window_k == 0 && cut <= commit_at[k]
            && cut > body_done[k])
            window_k = k;
    }
    const bool straddle_ok = window_k != 0 && got == window_k;

    bool ok = got == expect || straddle_ok;
    if (ok && got != 0) {
        ok = rec.valid()
            && persist::verifyBodyPattern(
                   rig.store, acheckSlotAddr(slot_base, rec.seq),
                   std::min<std::uint64_t>(rec.bytes,
                                           acheckBodyBytes(rec.seq)),
                   seeds[rec.seq]);
    }
    if (!ok)
        scratch.violation("energy A-CheckPC cut@", cut, " recovered seq ", got,
                          " expected ", expect);
    got != 0 ? ++cell.resumes : ++cell.coldBoots;
    return durable && got == acheckSweep && ok;
}

/**
 * One full outage against the plane's current charge: the rails die
 * at the profile's fail tick and the plane is fully spent.
 */
bool
runOutageEvent(net::PersistMode mode, const DryData &dry,
               energy::StoragePlane &plane, Rng &rng,
               TrialScratch &scratch)
{
    recordMinSoc(scratch.cell, plane);
    const Tick off = std::max<Tick>(
        cutOffset(dry.mode[modeOrd(mode)], plane), 1);

    bool survived = false;
    switch (mode) {
    case net::PersistMode::SnG:
        survived = runSngCore(off, rng, scratch);
        break;
    case net::PersistMode::OpLog:
        survived = runOpLogEvent(off, rng, scratch);
        break;
    case net::PersistMode::SysPc:
        survived = runSysPcEvent(off, rng, scratch);
        break;
    case net::PersistMode::SCheckPc:
        survived = runSCheckPcEvent(off, rng, scratch);
        break;
    case net::PersistMode::ACheckPc:
        survived = runACheckPcEvent(off, rng, scratch);
        break;
    }
    ++scratch.cell.cuts;
    zeroPlane(plane);
    return survived;
}

/**
 * A mid-storm planned power-down gated by the EnergyGuard: deferred
 * while the half-charged plane cannot carry the Stop, retried as the
 * charger closes the shortfall, and — once admitted — raced against
 * the real rail fail tick (an admitted Stop that misses its commit
 * is a guard bug and flags a violation). Consumes @p gap ticks of
 * the recovery window.
 */
void
voluntaryAttempt(const DryData &dry, energy::StoragePlane &plane,
                 Rng &rng, TrialScratch &scratch, Tick gap,
                 const pecos::DrainEstimate &drain)
{
    EnergyCellStats &cell = scratch.cell;
    const ModeDry &md = dry.mode[modeOrd(net::PersistMode::SnG)];

    bool was_deferred = false;
    Tick elapsed = 0;
    for (int attempt = 0; attempt < 6; ++attempt) {
        pecos::EnergyGuard guard(plane, drain);

        kernel::Kernel kern;
        psm::Psm psm;
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        sng.bindEnergyGuard(&guard);
        FaultInjector injector(store);

        const Tick off = std::max<Tick>(cutOffset(md, plane), 1);
        injector.armCut(off, rng.next());

        const pecos::StopReport rep = sng.stopVoluntary(0);
        if (rep.deferred) {
            ++cell.stopsDeferred;
            was_deferred = true;
            Tick wait = rep.retryAt == 0 ? tickMs : rep.retryAt;
            const Tick remaining = gap - elapsed;
            if (wait >= remaining) {
                // The storm window closes before the charger can
                // cover the Stop: stay deferred, keep recharging.
                elapsed = gap;
                plane.recharge(remaining);
                break;
            }
            plane.recharge(wait);
            elapsed += wait;
            continue;
        }

        if (was_deferred)
            ++cell.deferredStopsAdmitted;
        if (rep.commitFailed) {
            scratch.violation("energy guard admitted a Stop at soc ",
                              rep.socAtStop, " whose commit missed the"
                              " rails (cut@", off, ")");
        } else {
            ++cell.commitsDurable;
        }
        // The planned power-down rides the plane to the commit.
        deliverProfile(plane, md.steps, rep.commitAt);
        break;
    }
    if (elapsed < gap)
        plane.recharge(gap - elapsed);
}

/** Intensity 2: a three-cut storm with charge-limited gaps. */
bool
runStorm(net::PersistMode mode, const DryData &dry,
         energy::StoragePlane &plane, Rng &sched, Rng &mode_rng,
         TrialScratch &scratch)
{
    const double h0 = plane.ticksDeliverable(dry.busyWatts);
    bool all = true;
    for (int event = 0; event < 3; ++event) {
        const bool s =
            runOutageEvent(mode, dry, plane, mode_rng, scratch);
        all = all && s;
        if (event == 2)
            break;
        // Charge-limited recovery gap before the next strike.
        const double frac = 0.35 + 0.60 * sched.uniform();
        const Tick gap = std::max<Tick>(toTick(h0 * frac), 1);
        if (guardMode(mode)) {
            // Attempt the planned power-down early in the window:
            // the barely-recharged plane defers, the charger closes
            // the shortfall, and the retry admits.
            const Tick lead = gap / 8;
            plane.recharge(lead);
            const pecos::DrainEstimate &drain =
                mode == net::PersistMode::OpLog ? dry.oplogDrain
                                                : dry.sngDrain;
            voluntaryAttempt(dry, plane, mode_rng, scratch,
                             gap - lead, drain);
        } else {
            plane.recharge(gap);
        }
    }
    return all;
}

/**
 * Intensity 3: a brownout siege — a deep sag drains the plane until
 * it deepens into a full outage. Guarded modes fire the proactive
 * EP-cut at the low-charge warning; the in-trial counterfactual
 * (ride the sag to its end, then emergency-persist) decides whether
 * that saved the machine.
 */
bool
runSiege(net::PersistMode mode, const DryData &dry,
         energy::StoragePlane &plane, Rng &sched, Rng &mode_rng,
         TrialScratch &scratch)
{
    EnergyCellStats &cell = scratch.cell;
    const ModeDry &md = dry.mode[modeOrd(mode)];

    const double supply = 0.35 + 0.30 * sched.uniform();
    const double drain_watts = dry.busyWatts * (1.0 - supply);
    const double to_warn =
        plane.ticksDeliverable(drain_watts) * 0.8;
    const Tick sag_len =
        std::max<Tick>(toTick(to_warn * (0.85 + 0.50
                                         * sched.uniform())),
                       1);

    const pecos::DrainEstimate &drain =
        mode == net::PersistMode::OpLog ? dry.oplogDrain
                                        : dry.sngDrain;
    const bool guarded = guardMode(mode);
    pecos::EnergyGuard guard(plane, drain);

    Tick t = 0;
    while (t < sag_len) {
        const Tick step = std::min<Tick>(tickMs, sag_len - t);
        if (plane.ticksDeliverable(drain_watts)
            < static_cast<double>(step)) {
            // The reserve dies inside the sag: rails fail with
            // nothing persisted.
            recordMinSoc(cell, plane);
            zeroPlane(plane);
            ++cell.cuts;
            ++cell.coldBoots;
            return false;
        }
        plane.deliver(drain_watts, step);
        t += step;
        if (guarded && guard.lowChargeWarning())
            break;
    }

    if (guarded && t < sag_len) {
        // Low-charge warning: persist *now*, on the remaining
        // charge, instead of racing a dead plane at the real cut.
        ++cell.proactiveStops;
        recordMinSoc(cell, plane);

        // Counterfactual: ride the sag to its end, then
        // emergency-persist with whatever is left.
        energy::StoragePlane counterfactual = plane;
        const Tick rest = sag_len - t;
        bool cf_commits = false;
        if (counterfactual.ticksDeliverable(drain_watts)
            >= static_cast<double>(rest)) {
            counterfactual.deliver(drain_watts, rest);
            cf_commits =
                cutOffset(md, counterfactual) > md.commitLen;
        }

        const Tick off = std::max<Tick>(
            sagCutOffset(md, plane, supply, rest), 1);
        const bool survived = mode == net::PersistMode::OpLog
            ? runOpLogEvent(off, mode_rng, scratch)
            : runSngCore(off, mode_rng, scratch);
        ++cell.cuts;
        zeroPlane(plane);
        if (survived && !cf_commits)
            ++cell.proactiveSaves;
        return survived;
    }

    // The sag deepens into the outage with the plane run down.
    return runOutageEvent(mode, dry, plane, mode_rng, scratch);
}

std::uint64_t
campaignBaseSeed(const EnergyCampaignConfig &config)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ config.seed;
    for (const char c : std::string("energy-plane"))
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

} // namespace

void
validateEnergyCampaignConfig(const EnergyCampaignConfig &config)
{
    if (config.sizingScales.empty())
        fatal("energy campaign: no sizing scales");
    if (config.sizingScales.size() > (1u << 16))
        fatal("energy campaign: too many sizing scales");
    double prev = 0.0;
    for (const double scale : config.sizingScales) {
        if (!(scale > 0.0))
            fatal("energy campaign: sizing scale must be positive, "
                  "got ", scale);
        if (scale <= prev)
            fatal("energy campaign: sizing scales must be strictly "
                  "increasing");
        prev = scale;
    }
    if (config.modes.empty())
        fatal("energy campaign: no persistence modes");
    if (config.intensities.empty())
        fatal("energy campaign: no intensities");
    if (config.intensities.size() > 256)
        fatal("energy campaign: too many intensities");
    for (const std::uint32_t intensity : config.intensities) {
        if (intensity < 1 || intensity > 3)
            fatal("energy campaign: intensity ", intensity,
                  " outside [1, 3]");
    }
    if (config.seedsPerCell == 0)
        fatal("energy campaign: seedsPerCell must be >= 1");
    if (config.seedsPerCell >= (std::uint64_t(1) << 32))
        fatal("energy campaign: seedsPerCell must fit the stream "
              "column packing (< 2^32)");
    if (config.agingSpreadCycles < 0.0
        || !std::isfinite(config.agingSpreadCycles))
        fatal("energy campaign: agingSpreadCycles must be finite "
              "and non-negative");
}

std::uint64_t
energyCampaignTrials(const EnergyCampaignConfig &config)
{
    return config.sizingScales.size() * config.intensities.size()
        * config.modes.size() * config.seedsPerCell;
}

EnergyCampaignResult
runEnergyCampaign(const EnergyCampaignConfig &config)
{
    validateEnergyCampaignConfig(config);

    const DryData dry = buildDry();
    const std::uint64_t base_seed = campaignBaseSeed(config);

    const std::size_t n_scales = config.sizingScales.size();
    const std::size_t n_ints = config.intensities.size();
    const std::size_t n_modes = config.modes.size();
    const std::size_t n_cells = n_scales * n_ints * n_modes;
    const std::uint64_t trials = energyCampaignTrials(config);

    // The result's cells carry the cell metadata; trials only add
    // counters.
    EnergyCampaignResult result;
    result.cells.resize(n_cells);
    for (std::size_t s = 0; s < n_scales; ++s) {
        for (std::size_t iv = 0; iv < n_ints; ++iv) {
            for (std::size_t m = 0; m < n_modes; ++m) {
                EnergyCellStats &cell =
                    result.cells[(s * n_ints + iv) * n_modes + m];
                cell.scale = config.sizingScales[s];
                cell.provisionedJoules =
                    energy::StoragePlane(
                        energy::serverHierarchy(
                            config.sizingScales[s]))
                        .totalCapacityJoules();
                cell.mode = config.modes[m];
                cell.intensity = config.intensities[iv];
            }
        }
    }

    sim::ParallelExecutor pool(config.threads);
    const std::vector<TrialScratch> runs = pool.map<TrialScratch>(
        trials,
        [&config, &dry, base_seed, n_ints,
         n_modes](std::uint64_t i) {
            const std::uint64_t k_idx = i % config.seedsPerCell;
            std::uint64_t rest = i / config.seedsPerCell;
            const std::size_t m_idx = rest % n_modes;
            rest /= n_modes;
            const std::size_t i_idx = rest % n_ints;
            const std::size_t s_idx = rest / n_ints;

            const net::PersistMode mode = config.modes[m_idx];
            const std::uint32_t intensity =
                config.intensities[i_idx];
            const double scale = config.sizingScales[s_idx];

            // Mode-independent stream: every mode faces the same
            // machine aging and the same outage schedule (paired
            // comparison across the provisioning sweep).
            const std::uint64_t column =
                ((static_cast<std::uint64_t>(s_idx) * 256 + i_idx)
                 << 32)
                | k_idx;
            Rng sched(Rng::streamSeed(base_seed, column));
            Rng mode_rng(Rng::streamSeed(
                base_seed ^ modeSalt(mode), column));

            energy::StoragePlane plane(
                energy::serverHierarchy(scale));
            plane.applyAgingCycles(sched.uniform()
                                   * config.agingSpreadCycles);

            TrialScratch scratch;
            bool survived = false;
            switch (intensity) {
            case 1:
                survived = runOutageEvent(mode, dry, plane,
                                          mode_rng, scratch);
                break;
            case 2:
                survived = runStorm(mode, dry, plane, sched,
                                    mode_rng, scratch);
                break;
            case 3:
                survived = runSiege(mode, dry, plane, sched,
                                    mode_rng, scratch);
                break;
            default: break;
            }
            ++scratch.cell.trials;
            if (survived)
                ++scratch.cell.survivedTrials;
            return scratch;
        });

    // Fold in trial-index order (trial i belongs to cell
    // i / seedsPerCell), then the fleet total over the cells.
    for (std::uint64_t i = 0; i < runs.size(); ++i) {
        EnergyCellStats &cell = result.cells[i / config.seedsPerCell];
        energyCounters().merge(cell, runs[i].cell);
        stats::appendTrialNotes(
            result.violationNotes, i,
            stats::streamed("scale ", cell.scale, " intensity ",
                            cell.intensity, " ",
                            net::persistModeName(cell.mode)),
            runs[i].notes);
    }
    for (const EnergyCellStats &cell : result.cells)
        energyCounters().merge(result.total, cell);

    // The minimum-provisioning table.
    for (std::size_t m = 0; m < n_modes; ++m) {
        for (std::size_t iv = 0; iv < n_ints; ++iv) {
            EnergyProvision prov;
            prov.mode = config.modes[m];
            prov.intensity = config.intensities[iv];
            for (std::size_t s = 0; s < n_scales; ++s) {
                const EnergyCellStats &cell =
                    result.cells[(s * n_ints + iv) * n_modes + m];
                if (cell.trials > 0
                    && cell.survivedTrials == cell.trials) {
                    prov.met = true;
                    prov.scale = cell.scale;
                    prov.joules = cell.provisionedJoules;
                    break;
                }
            }
            result.provisioning.push_back(prov);
        }
    }

    sim::Fnv64 digest;
    for (const EnergyCellStats &cell : result.cells)
        energyCounters().mix(digest, cell);
    for (const EnergyProvision &prov : result.provisioning) {
        digest.mix(prov.met ? 1 : 0);
        digest.mix(static_cast<std::uint64_t>(prov.scale * 1000.0));
    }
    result.digest = digest.h;
    return result;
}

} // namespace lightpc::fault
