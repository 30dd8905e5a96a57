#include "fault/persist_probe.hh"

#include <algorithm>

#include "persist/checkpoint.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

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
oplogKvParams(std::uint64_t ring_records)
{
    net::KvParams params;
    params.writePath = net::WritePath::OpLog;
    params.keyCapacity = 64;
    params.dedupCapacity = 256;
    params.oplog.capacity = ring_records * net::OpLog::recordBytes;
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

namespace
{

constexpr std::uint64_t sysPcBaseBytes = 4 << 20;

// A-CheckPC captures are sized like the decorator's stack/heap
// captures (4-32 KB).
std::uint64_t
acheckBodyBytes(std::uint64_t k)
{
    return 4096 + (k * 2654435761ULL) % (28 << 10);
}

/**
 * Run @p run's prior dumps on @p image, drawing each body seed from
 * @p seed. @return the tick AC drops.
 */
template <typename Seed>
Tick
runPrior(persist::ImageCheckpoint &image, const ImageRun &run,
         Seed &&seed)
{
    Tick ac = run.start;
    for (std::uint64_t k = 0; k < run.prior; ++k)
        ac = image.dumpCommitted(ac, run.priorBytes, seed(k)) + run.gap;
    return ac;
}

/** The cut's write counters, read before power returns. */
ProbeOutcome
cutOutcome(const mem::BackingStore &store)
{
    ProbeOutcome out;
    out.droppedWrites = store.cutStats().droppedWrites;
    out.tornWrites = store.cutStats().tornWrites;
    return out;
}

} // namespace

SngCut
cutSng(SngRig &rig, Tick start, Tick cut, Rng &rng,
       std::uint64_t &violations, std::vector<std::string> &notes,
       const char *site)
{
    SngCut c;
    c.before = rig.kern.snapshot();
    c.cut = cut;
    if (cut != maxTick)
        rig.store.armPowerCut(cut, rng.next());
    c.stop = rig.sng.stop(start);
    c.durable = c.stop.commitAt < cut;

    // Power loss: everything volatile is gone. The PCBs get
    // scrambled so a resume that "works" by reading stale DRAM
    // instead of OC-PMEM cannot pass the register check.
    rig.kern.scramble(rng);
    if (cut != maxTick)
        rig.store.disarmPowerCut();
    judgeSngCommit(rig, c, violations, notes, site);
    return c;
}

void
judgeSngCommit(const SngRig &rig, const SngCut &c,
               std::uint64_t &violations, std::vector<std::string> &notes,
               const char *site)
{
    if (rig.sng.hasCommit() != c.durable)
        stats::noteViolation(
            violations, notes, site, " cut@", c.cut, " (",
            pecos::stopSubPhaseName(c.stop.cutSubPhase),
            "): commit durable=", rig.sng.hasCommit(), " expected=",
            c.durable);
}

void
judgeSngRecovery(const SngRig &rig, const SngCut &c, bool cold_boot,
                 bool degraded, std::uint64_t &violations,
                 std::vector<std::string> &notes, const char *site)
{
    if (cold_boot == c.durable && !degraded)
        stats::noteViolation(violations, notes, site, " cut@", c.cut,
                             ": coldBoot=", cold_boot,
                             " but commit durable=", c.durable);
    // Byte-exact register + device-cookie round-trip through OC-PMEM
    // (the scramble in cutSng() guarantees stale volatile copies
    // cannot pass). Task state is excluded: resume legitimately
    // transitions it.
    if (!cold_boot && !rig.kern.snapshot().registersMatch(c.before))
        stats::noteViolation(violations, notes, site, " cut@", c.cut,
                             ": resumed with corrupt register state");
}

ProbeOutcome
probeSng(Tick cut, Rng &rng, std::uint64_t &violations,
         std::vector<std::string> &notes)
{
    SngRig rig;
    const std::uint64_t seen = violations;
    const SngCut c = cutSng(rig, 0, cut, rng, violations, notes, "SnG");

    ProbeOutcome out;
    out.droppedWrites = c.stop.writesDropped;
    out.tornWrites = c.stop.writesTorn;
    out.phase = cut <= c.stop.processStopDone ? CutPhase::ProcessStop
        : cut <= c.stop.deviceStopDone        ? CutPhase::DeviceStop
        : cut <= c.stop.commitAt              ? CutPhase::EpCut
                                              : CutPhase::PostCommit;
    out.durable = c.durable;

    const pecos::GoReport go = rig.sng.resume(cut + 100 * tickMs);
    out.resumed = !go.coldBoot;
    judgeSngRecovery(rig, c, go.coldBoot, false, violations, notes,
                     "SnG");
    out.intact = violations == seen;
    return out;
}

ImageRun
sysPcRun(bool have_base, std::uint64_t dump_bytes)
{
    return {persist::sysPcKind, have_base ? 1u : 0u, sysPcBaseBytes,
            tickMs, dump_bytes, have_base ? 0 : tickMs};
}

ImageRun
sCheckPcRun(std::uint64_t prior, std::uint64_t vm_bytes, Tick gap)
{
    return {persist::sCheckPcKind, prior, vm_bytes, gap, vm_bytes, 0};
}

ProbeOutcome
probeImage(const ImageRun &run, Rng &rng, const CutPicker &pick,
           std::uint64_t &violations, std::vector<std::string> &notes)
{
    ImageRig rig;
    persist::ImageCheckpoint image(rig.pmem, run.kind);

    DumpWindows w;
    w.ac = runPrior(image, run, [&rng](std::uint64_t) { return rng.next(); });
    const Tick cut = pick(w.ac);
    rig.store.armPowerCut(cut, rng.next());
    image.dumpCommitted(w.ac, run.dumpBytes, rng.next());
    w.bodyDone = image.lastBodyDoneAt();
    w.commitAt = image.lastCommitAt();
    ProbeOutcome out = cutOutcome(rig.store);

    rig.store.disarmPowerCut();
    image.recover(cut + 100 * tickMs);
    const std::uint64_t got = image.recoveredSeq();

    // Recovery must find the new image iff its commit record beat the
    // rails, the prior one if the cut landed mid-body, and either one
    // if the cut landed inside the record's own write: the record then
    // lands whole over a fully durable body or tears and reads as "no
    // commit". A recovered new image must also verify.
    out.phase = cut <= w.bodyDone ? CutPhase::MidDump
        : cut <= w.commitAt       ? CutPhase::CommitWindow
                                  : CutPhase::PostCommit;
    out.durable = w.commitAt < cut;
    out.resumed = got != 0;
    const std::uint64_t final_seq = run.prior + 1;
    if (out.durable)
        out.intact = got == final_seq;
    else if (out.phase == CutPhase::MidDump)
        out.intact = got == run.prior;
    else
        out.intact = got == run.prior || got == final_seq;
    if (out.intact && got == final_seq)
        out.intact = image.intact(image.latestCommit());

    if (!out.intact)
        stats::noteViolation(violations, notes, run.kind.name, " cut@",
                             cut, " ", cutPhaseName(out.phase),
                             ": recovered seq ", got, " (base ",
                             run.prior, ", commit@", w.commitAt, ")");
    return out;
}

ProbeOutcome
probeACheckPc(std::uint64_t captures, Tick think, Tick cut, Rng &rng,
              std::uint64_t &violations, std::vector<std::string> &notes)
{
    ImageRig rig;
    persist::ImageCheckpoint acheck(rig.pmem, persist::aCheckPcKind);
    rig.store.armPowerCut(cut, rng.next());

    std::vector<std::uint64_t> seeds(captures + 1, 0);
    std::vector<Tick> commit_at(captures + 1, 0);
    std::vector<Tick> body_done(captures + 1, 0);
    Tick t = 0;
    for (std::uint64_t k = 1; k <= captures; ++k) {
        seeds[k] = rng.next();
        t = acheck.dumpCommitted(t + think, acheckBodyBytes(k), seeds[k]);
        body_done[k] = acheck.lastBodyDoneAt();
        commit_at[k] = acheck.lastCommitAt();
    }
    ProbeOutcome out = cutOutcome(rig.store);
    out.durable = commit_at[captures] < cut;

    std::uint64_t expect = 0;    ///< newest record that beat the rails
    std::uint64_t in_flight = 0;  ///< capture in flight at the cut
    for (std::uint64_t k = 1; k <= captures; ++k) {
        if (commit_at[k] < cut) {
            expect = k;
        } else if (in_flight == 0) {
            in_flight = k;
            out.phase = cut <= body_done[k] ? CutPhase::MidDump
                                            : CutPhase::CommitWindow;
        }
    }

    rig.store.disarmPowerCut();
    const persist::CheckpointLedger::Record rec = acheck.latestCommit();
    const std::uint64_t got = rec.seq;
    out.resumed = got != 0;

    // A cut inside record k's own write may land it whole: then and
    // only then may one newer commit than expected survive.
    out.intact = got == expect
        || (out.phase == CutPhase::CommitWindow && got == in_flight);
    if (out.intact && got != 0) {
        out.intact = rec.valid()
            && persist::verifyBodyPattern(
                   rig.store, acheck.slotAddr(got & 1),
                   std::min<std::uint64_t>(rec.bytes,
                                           acheckBodyBytes(got)),
                   seeds[got]);
    }
    if (!out.intact)
        stats::noteViolation(violations, notes, "A-CheckPC cut@", cut,
                             " ", cutPhaseName(out.phase),
                             ": recovered seq ", got, " expected ",
                             expect);
    return out;
}

DumpWindows
imageWindows(const ImageRun &run)
{
    ImageRig rig;
    persist::ImageCheckpoint image(rig.pmem, run.kind);
    DumpWindows w;
    w.ac = runPrior(image, run, [](std::uint64_t k) { return 7 + k; });
    image.dumpCommitted(w.ac, run.dumpBytes, 7 + run.prior);
    w.bodyDone = image.lastBodyDoneAt();
    w.commitAt = image.lastCommitAt();
    return w;
}

Tick
aCheckPcLastCommit(std::uint64_t captures, Tick think)
{
    ImageRig rig;
    persist::ImageCheckpoint acheck(rig.pmem, persist::aCheckPcKind);
    Tick t = 0;
    for (std::uint64_t k = 1; k <= captures; ++k)
        t = acheck.dumpCommitted(t + think, acheckBodyBytes(k), k);
    return acheck.lastCommitAt();
}

} // namespace lightpc::fault
