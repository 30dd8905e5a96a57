#include "fault/compound.hh"

#include <algorithm>
#include <cmath>

#include "fault/persist_probe.hh"
#include "fault/power_rail.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "persist/checkpoint.hh"
#include "power/power_model.hh"
#include "power/psu.hh"
#include "psm/psm.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "stats/trial_grid.hh"

namespace lightpc::fault
{

std::vector<Tick>
CutStorm::poisson(Tick start, Tick mean_gap, std::size_t count)
{
    std::vector<Tick> cuts;
    cuts.reserve(count);
    Tick t = start;
    for (std::size_t i = 0; i < count; ++i) {
        // Exponential gap with the requested mean, at least one tick
        // (two cuts can never share an instant).
        const double u = rng.uniform();
        const double gap =
            -static_cast<double>(mean_gap) * std::log(1.0 - u);
        t += std::max<Tick>(1, static_cast<Tick>(gap));
        cuts.push_back(t);
    }
    return cuts;
}

Tick
CutStorm::uniformIn(Tick lo, Tick hi)
{
    return hi > lo ? lo + rng.below(hi - lo) : lo;
}

std::uint32_t
CutStorm::rackOf(std::uint32_t replica, std::uint32_t replicas,
                 std::uint32_t racks)
{
    if (replicas == 0 || racks == 0)
        fatal("CutStorm::rackOf needs replicas and racks >= 1");
    if (replica >= replicas)
        fatal("CutStorm::rackOf: replica ", replica, " out of range");
    return static_cast<std::uint32_t>(
        std::uint64_t(replica) * racks / replicas);
}

std::vector<CorrelatedStorm>
CutStorm::correlated(Tick start, Tick end, std::size_t storms,
                     std::uint32_t replicas, std::uint32_t racks,
                     std::uint32_t rack_span, Tick window)
{
    if (replicas == 0 || racks == 0)
        fatal("CutStorm::correlated needs replicas and racks >= 1");
    if (racks > replicas)
        fatal("CutStorm::correlated: more racks (", racks,
              ") than replicas (", replicas, ") leaves racks empty");
    if (rack_span == 0 || rack_span > racks)
        fatal("CutStorm::correlated: rack span ", rack_span,
              " outside [1, ", racks, "]");
    if (window == 0)
        fatal("CutStorm::correlated needs a nonzero storm window");

    std::vector<CorrelatedStorm> out;
    if (storms == 0 || end <= start)
        return out;
    out.reserve(storms);
    const Tick spacing = (end - start) / (storms + 1);
    for (std::size_t s = 0; s < storms; ++s) {
        CorrelatedStorm storm;
        const Tick nominal = start + spacing * (s + 1);
        storm.startAt = uniformIn(nominal, nominal + spacing / 4 + 1);

        // Struck racks: the first storm always hits rack 0 (the
        // bootstrap leader's rack — the adversarial choice), the rest
        // start from an rng rack; spans wrap around the rack ring.
        const std::uint32_t first =
            s == 0 ? 0
                   : static_cast<std::uint32_t>(rng.below(racks));
        for (std::uint32_t i = 0; i < rack_span; ++i)
            storm.racks.push_back((first + i) % racks);
        std::sort(storm.racks.begin(), storm.racks.end());

        for (std::uint32_t r = 0; r < replicas; ++r) {
            const std::uint32_t rack = rackOf(r, replicas, racks);
            if (std::find(storm.racks.begin(), storm.racks.end(), rack)
                == storm.racks.end())
                continue;
            ReplicaCut cut;
            cut.replica = r;
            cut.at = uniformIn(storm.startAt, storm.startAt + window);
            storm.cuts.push_back(cut);
        }
        std::sort(storm.cuts.begin(), storm.cuts.end(),
                  [](const ReplicaCut &a, const ReplicaCut &b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      return a.replica < b.replica;
                  });
        out.push_back(std::move(storm));
    }
    return out;
}

SupervisorOutcome
RecoverySupervisor::supervise(Tick when, const std::vector<Tick> &cuts,
                              Rng &rng)
{
    if (pmem.powerCutArmed())
        fatal("RecoverySupervisor needs the store disarmed at entry");

    SupervisorOutcome out;
    Tick t = when;
    std::size_t ci = 0;
    Tick backoff = cfg.retryBackoff;

    while (true) {
        ++out.attempts;

        // Cuts in the past fell while the machine was already down;
        // the outage absorbed them.
        while (ci < cuts.size() && cuts[ci] <= t)
            ++ci;
        const Tick external = ci < cuts.size() ? cuts[ci] : maxTick;

        // The watchdog reset *is* a power cut at the deadline tick:
        // a hung Go cannot land its commit-clear past it, exactly as
        // if the rails had fallen.
        const Tick watchdog = cfg.resumeDeadline == maxTick
            ? maxTick : t + cfg.resumeDeadline;
        const Tick arm = std::min(external, watchdog);
        if (arm != maxTick)
            pmem.armPowerCut(arm, rng.next());

        const pecos::GoReport go = sng.resume(t);

        const bool interrupted = go.interrupted;
        if (arm != maxTick) {
            out.staleWritesSeen += pmem.cutStats().staleWrites;
            // The armed instant only becomes an epoch floor if the
            // machine actually reached it; a resume that converged
            // first means the cut never fired (AC back, watchdog
            // fed) and the floor must not move into the future.
            if (arm <= go.done)
                pmem.disarmPowerCut();
            else
                pmem.cancelPowerCut();
        }

        if (go.coldBoot) {
            // Nothing durable to replay: the machine converges cold.
            out.coldBoot = true;
            out.convergedAt = go.done;
            return out;
        }
        if (!interrupted) {
            // The commit-clear landed: converged.
            out.convergedAt = go.done;
            return out;
        }

        // This attempt died — to the external cut, or to the
        // watchdog declaring a livelock. Either way the volatile
        // side is gone and the durable EP-cut is still intact.
        if (watchdog <= external) {
            ++out.livelocks;
        } else {
            ++out.cutsConsumed;
            ++ci;
        }
        kern.scramble(rng);

        if (out.attempts >= cfg.maxAttempts) {
            // K resumes have failed against this image. Escalate:
            // invalidate it and boot cold — degraded, but the
            // machine converges instead of thrashing forever.
            const Tick boot_at = arm + backoff;
            sng.invalidateCommit(boot_at);
            const pecos::GoReport cold = sng.resume(boot_at);
            out.coldBoot = true;
            out.degradedColdBoot = true;
            out.convergedAt = cold.done;
            return out;
        }

        t = arm + backoff;
        backoff = std::min(backoff * 2, cfg.backoffCap);
    }
}

std::uint64_t
machineStateDigest(const kernel::Kernel &kern,
                   const mem::BackingStore &pmem)
{
    sim::Fnv64 fnv;
    const kernel::SystemSnapshot snap = kern.snapshot();
    for (const auto &entry : snap.entries) {
        fnv.mix(entry.pid);
        fnv.mix(static_cast<std::uint64_t>(entry.state));
        for (const std::uint64_t x : entry.regs.x)
            fnv.mix(x);
        fnv.mix(entry.regs.pc);
        fnv.mix(entry.regs.sp);
        fnv.mix(entry.regs.satp);
    }
    for (const std::uint64_t cookie : snap.deviceCookies)
        fnv.mix(cookie);
    fnv.mix(pmem.contentDigest());
    return fnv.h;
}

const stats::CounterSet<CompoundResult> &
compoundCounters()
{
    using R = CompoundResult;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::trials>("trials"),
        counter<&R::stopCutTrials>("scenarios.stop_cut"),
        counter<&R::goCutTrials>("scenarios.go_cut"),
        counter<&R::brownoutTrials>("scenarios.brownout"),
        counter<&R::stormTrials>("scenarios.storm"),
        counter<&R::oplogTrials>("scenarios.oplog"),
        stats::histogram<&R::stopPhaseCuts>(
            "stop_phase_cuts",
            [](std::size_t p) {
                return pecos::stopSubPhaseName(pecos::StopSubPhase(p));
            }),
        stats::histogram<&R::goPhaseCuts>(
            "go_phase_cuts",
            [](std::size_t p) {
                return pecos::goSubPhaseName(pecos::GoSubPhase(p));
            }),
        counter<&R::resumes>("resumes"),
        counter<&R::coldBoots>("cold_boots"),
        counter<&R::degradedColdBoots>("degraded_cold_boots"),
        counter<&R::supervisorRetries>("supervisor_retries"),
        counter<&R::livelocks>("livelocks"),
        counter<&R::abortedStops>("aborted_stops"),
        counter<&R::abortContinues>("abort_continues"),
        counter<&R::baselineRetries>("baseline_retries"),
        counter<&R::baselineRecoveries>("baseline_recoveries"),
        counter<&R::tornResumes>("torn_resumes"),
        counter<&R::idempotenceChecks>("idempotence_checks"),
        counter<&R::oplogTornTails>("oplog_torn_tails"),
        counter<&R::oplogReplayChecks>("oplog_replay_checks"),
        counter<&R::oplogRecordsReplayed>("oplog_records_replayed"),
        counter<&R::stormCutsTotal>("storm_cuts"),
        counter<&R::maxCutEpochs>("max_cut_epochs", stats::Fold::Max),
        counter<&R::staleWritesRejected>("stale_writes_rejected"),
        counter<&R::droppedWrites>("dropped_writes"),
        counter<&R::tornWrites>("torn_writes"),
        counter<&R::violations>("violations"));
    return set;
}

using stats::flagViolation;

namespace
{

/** Poisson storm: cuts per trial is 3 + below(stormExtraCuts + 1). */
constexpr std::uint32_t stormExtraCuts = 2;

/** Storm mean gap as a fraction of the measured hold-up. */
constexpr double stormGapFraction = 0.6;

/** Count where @p stop's cut landed and the writes it cost. */
void
countStop(CompoundResult &result, const pecos::StopReport &stop)
{
    ++result.stopPhaseCuts[static_cast<std::size_t>(stop.cutSubPhase)];
    result.droppedWrites += stop.writesDropped;
    result.tornWrites += stop.writesTorn;
}

/** Judge a supervised recovery from @p c and count how it ended. */
void
judgeRecovery(CompoundResult &result, const SngRig &rig, const SngCut &c,
              const SupervisorOutcome &out, const char *site)
{
    judgeSngRecovery(rig, c, out.coldBoot, out.degradedColdBoot,
                     result.violations, result.violationNotes, site);
    ++(out.coldBoot ? result.coldBoots : result.resumes);
}

} // namespace

CompoundResult
runCompoundCampaign(const CompoundConfig &config)
{
    using pecos::GoSubPhase;
    using pecos::StopSubPhase;

    // Dry runs: the Stop and Go timelines (construction is
    // deterministic, so every trial replays these boundaries until a
    // cut diverges it).
    pecos::StopReport dryStop;
    pecos::GoReport dryGo;
    std::uint32_t cores = 0;
    std::uint32_t dimms = 0;
    {
        SngRig rig;
        dryStop = rig.sng.stop(0);
        dryGo = rig.sng.resume(dryStop.offlineDone + 100 * tickMs);
        cores = rig.kern.cores();
        dimms = rig.psm.params().dimms;
    }
    const Tick goWindow = dryGo.done - dryGo.start;

    const power::PowerModel power_model;
    const double watts = phaseWatts(power_model, cores, 0, dimms);
    const power::PsuModel psu = power::PsuModel::atx();
    const Tick holdup = psu.holdupTime(watts);

    // Each trial's randomness is a pure function of (seed, i): an
    // Rng stream and a CutStorm stream of its own, so trials can run
    // on any worker in any order and still replay the sequential
    // campaign exactly.
    const std::uint64_t rng_seed = config.seed ^ 0x636f6d70ULL;  // "comp"
    const std::uint64_t storm_seed =
        config.seed * 0x9e3779b97f4a7c15ULL + 1;

    auto trial = [&psu, &dryStop, &dryGo, goWindow, watts, holdup,
                  rng_seed, storm_seed](std::uint64_t i) {
        CompoundResult result;
        Rng rng(Rng::streamSeed(rng_seed, i));
        CutStorm storm(Rng::streamSeed(storm_seed, i));

        const int scenario = static_cast<int>(i % 5);

        if (scenario == 0) {
            // ---- Cut-during-Stop, one drain sub-phase per trial —
            // rotating so every sub-phase is hit, then supervised
            // recovery.
            ++result.stopCutTrials;

            struct Window { Tick lo, hi; };
            const Window windows[7] = {
                {0, dryStop.processStopDone},
                {dryStop.processStopDone, dryStop.ctxSaveDone},
                {dryStop.ctxSaveDone, dryStop.deviceStopDone},
                {dryStop.deviceStopDone, dryStop.workerOfflineDone},
                {dryStop.workerOfflineDone, dryStop.commitStart},
                {dryStop.commitStart, dryStop.commitAt},
                {dryStop.commitAt + 1,
                 dryStop.commitAt + dryStop.offlineDone / 8},
            };
            const Window &w = windows[(i / 5) % 7];
            const Tick cut = storm.uniformIn(w.lo, w.hi);

            SngRig rig;
            const SngCut c = cutSng(rig, 0, cut, rng, result.violations,
                                    result.violationNotes, "stop-cut");
            countStop(result, c.stop);

            RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
            const SupervisorOutcome out =
                sup.supervise(cut + 100 * tickMs, {}, rng);
            result.supervisorRetries += out.attempts - 1;
            result.livelocks += out.livelocks;
            judgeRecovery(result, rig, c, out, "stop-cut");
        } else if (scenario == 1) {
            // ---- Cut-during-Go: a clean EP-cut, then the cut lands
            // inside the resume. A torn resume must leave the commit
            // valid, and replaying it must be byte-identical to an
            // uninterrupted resume of the same image.
            ++result.goCutTrials;

            // The uninterrupted reference machine.
            SngRig ref;
            ref.sng.stop(0);
            const Tick resume_at = dryStop.offlineDone + 100 * tickMs;
            ref.kern.scramble(rng);
            ref.sng.resume(resume_at);
            const std::uint64_t ref_digest =
                machineStateDigest(ref.kern, ref.store);

            SngRig rig;
            rig.sng.stop(0);
            rig.kern.scramble(rng);

            // Rotate the cut across the Go sub-phase windows (the
            // dry-run boundaries are exact: the trial resumes at the
            // same tick the dry run did).
            struct Window { Tick lo, hi; };
            const Window windows[6] = {
                {dryGo.start, dryGo.bcbRestored},
                {dryGo.bcbRestored, dryGo.coresUp},
                {dryGo.coresUp, dryGo.devicesResumed},
                {dryGo.devicesResumed, dryGo.thawDone},
                {dryGo.thawDone, dryGo.done + 1},
                {dryGo.done + 1, dryGo.done + 1 + goWindow / 8},
            };
            const Window &w = windows[(i / 5) % 6];
            const Tick cut = storm.uniformIn(w.lo, w.hi);
            rig.store.armPowerCut(cut, rng.next());
            const pecos::GoReport go1 = rig.sng.resume(resume_at);
            ++result.goPhaseCuts[static_cast<std::size_t>(
                go1.cutSubPhase)];
            result.droppedWrites += rig.store.cutStats().droppedWrites;
            result.tornWrites += rig.store.cutStats().tornWrites;
            result.staleWritesRejected +=
                rig.store.cutStats().staleWrites;
            rig.store.disarmPowerCut();

            if (go1.interrupted) {
                ++result.tornResumes;
                if (!rig.sng.hasCommit())
                    flagViolation(result, "go-cut: torn resume lost "
                                          "the durable EP-cut");
                // The machine died mid-Go; replay from the image.
                rig.kern.scramble(rng);
                const pecos::GoReport go2 =
                    rig.sng.resume(go1.cutTick + 100 * tickMs);
                if (go2.coldBoot || go2.interrupted)
                    flagViolation(result, "go-cut: resume replay "
                                          "failed to converge");
            } else if (rig.sng.hasCommit()) {
                flagViolation(result, "go-cut: converged resume left "
                                      "the commit set");
            }
            ++result.resumes;

            // The idempotence proof: torn-and-replayed or not, the
            // machine must equal the once-resumed reference.
            ++result.idempotenceChecks;
            if (machineStateDigest(rig.kern, rig.store)
                != ref_digest) {
                flagViolation(result, "go-cut@", cut, " (",
                              pecos::goSubPhaseName(go1.cutSubPhase),
                              "): replayed resume diverged from the "
                              "reference machine");
            }
        } else if (scenario == 2) {
            // ---- Brownout: a mains sag that may or may not reach
            // the hold-up floor.
            ++result.brownoutTrials;

            const double supply = 0.7 * rng.uniform();
            const double depth = 1.0 - supply;
            const Tick floor = static_cast<Tick>(
                static_cast<double>(holdup) / depth);
            const Tick dur = static_cast<Tick>(
                (0.3 + 1.3 * rng.uniform())
                * static_cast<double>(floor));

            PowerRail rail(psu, watts);
            rail.addSag(0, dur, supply);
            const SagOutcome sag = rail.evaluateSags();

            if (sag.railsFailed) {
                // Deep sag: a real cut at the drained tick, racing
                // the Stop that the power event started.
                SngRig rig;
                const SngCut c =
                    cutSng(rig, 0, sag.failTick, rng, result.violations,
                           result.violationNotes, "brownout");
                countStop(result, c.stop);
                RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
                const SupervisorOutcome out = sup.supervise(
                    sag.failTick + 100 * tickMs, {}, rng);
                judgeRecovery(result, rig, c, out, "brownout");
            } else if ((i / 5) % 2 == 0) {
                // Shallow sag, SnG: the Stop ran to completion on
                // capacitor reserve, then AC recovered — abort in
                // place, no reboot, and keep running.
                SngRig rig;
                const kernel::SystemSnapshot before =
                    rig.kern.snapshot();
                const pecos::StopReport stop = rig.sng.stop(0);
                const Tick abort_at =
                    std::max(sag.recoveredAt, stop.offlineDone) + 1;
                const pecos::AbortReport abort =
                    rig.sng.abortStop(abort_at);
                ++result.abortedStops;

                if (!abort.commitCleared || rig.sng.hasCommit())
                    flagViolation(result,
                                  "brownout-abort: stale EP-cut "
                                  "survived the abort");
                if (rig.kern.devices().suspendedCount() != 0
                    || abort.devicesRevived != stop.devicesSuspended)
                    flagViolation(result,
                                  "brownout-abort: devices left "
                                  "suspended");
                if (abort.tasksUnparked != stop.tasksParked)
                    flagViolation(result,
                                  "brownout-abort: parked tasks "
                                  "left frozen");
                if (!rig.kern.snapshot().registersMatch(before))
                    flagViolation(result,
                                  "brownout-abort: register state "
                                  "changed across the abort");

                // ...and continue: the aborted machine must still
                // persist correctly through a later real cycle.
                const kernel::SystemSnapshot mid =
                    rig.kern.snapshot();
                const pecos::StopReport stop2 =
                    rig.sng.stop(abort.done + 50 * tickMs);
                rig.kern.scramble(rng);
                const pecos::GoReport go = rig.sng.resume(
                    stop2.offlineDone + 100 * tickMs);
                if (go.coldBoot
                    || !rig.kern.snapshot().registersMatch(mid)) {
                    flagViolation(result,
                                  "brownout-abort: post-abort cycle "
                                  "failed to round-trip");
                } else {
                    ++result.abortContinues;
                    ++result.resumes;
                }
            } else {
                // Shallow sag, image baseline: each dump attempt
                // during the sag dies to the drained reserve; the
                // service retries with capped exponential backoff
                // until AC is stable.
                ImageRig rig;
                persist::ImageCheckpoint syspc(rig.pmem,
                                               persist::sysPcKind);

                constexpr std::uint64_t image_bytes = 2 << 20;
                const std::uint32_t failures =
                    1 + static_cast<std::uint32_t>(rng.below(3));
                Tick t = 0;
                Tick backoff = SupervisorConfig::retryBackoff;
                std::uint32_t attempt = 0;
                for (;;) {
                    ++attempt;
                    if (attempt <= failures) {
                        const Tick cut =
                            t + tickMs + rng.below(tickMs);
                        rig.store.armPowerCut(cut, rng.next());
                        syspc.dumpCommitted(t, image_bytes, rng.next());
                        rig.store.disarmPowerCut();
                        if (syspc.latestCommit().seq != 0)
                            flagViolation(result,
                                          "brownout-baseline: dump "
                                          "committed past the cut");
                        ++result.baselineRetries;
                        t = cut + backoff;
                        backoff = std::min(backoff * 2,
                                           SupervisorConfig::backoffCap);
                    } else {
                        // AC stable: this dump must land.
                        syspc.dumpCommitted(t, image_bytes, rng.next());
                        const auto rec = syspc.latestCommit();
                        if (rec.seq != attempt || !syspc.intact(rec)) {
                            flagViolation(result,
                                          "brownout-baseline: "
                                          "post-sag dump did not "
                                          "commit intact");
                        } else {
                            ++result.baselineRecoveries;
                        }
                        break;
                    }
                }
            }
        } else if (scenario == 3) {
            // ---- Poisson cut storm against ONE store: every cut
            // opens a new durability epoch; bytes dropped by an
            // earlier cut must never resurface under a later one.
            ++result.stormTrials;

            SngRig rig;
            const std::size_t n_cuts = 3
                + static_cast<std::size_t>(
                      rng.below(stormExtraCuts + 1));
            const Tick mean_gap = static_cast<Tick>(
                stormGapFraction * static_cast<double>(holdup));
            const std::vector<Tick> schedule = storm.poisson(
                storm.uniformIn(0, dryStop.offlineDone), mean_gap,
                n_cuts);
            result.stormCutsTotal += schedule.size();

            Tick t = 0;
            std::size_t idx = 0;
            while (idx < schedule.size()) {
                const Tick cut = schedule[idx];
                if (cut <= t) {
                    // This cut fell while the machine was down or
                    // recovering; the outage absorbed it.
                    ++idx;
                    continue;
                }
                const SngCut c = cutSng(rig, t, cut, rng,
                                        result.violations,
                                        result.violationNotes, "storm");
                countStop(result, c.stop);
                result.staleWritesRejected +=
                    rig.store.cutStats().staleWrites;
                ++idx;

                // Restore inside the storm: the next cuts are live
                // and can land mid-Go; the supervisor replays until
                // it converges past them.
                const std::vector<Tick> remaining(
                    schedule.begin()
                        + static_cast<std::ptrdiff_t>(idx),
                    schedule.end());
                RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
                const SupervisorOutcome out = sup.supervise(
                    cut + mean_gap / 4, remaining, rng);
                result.supervisorRetries += out.attempts - 1;
                result.livelocks += out.livelocks;
                result.staleWritesRejected += out.staleWritesSeen;
                result.tornResumes += out.cutsConsumed;
                if (out.degradedColdBoot)
                    ++result.degradedColdBoots;
                judgeRecovery(result, rig, c, out, "storm");

                idx += out.cutsConsumed;
                t = out.convergedAt + mean_gap / 2;
            }
            result.maxCutEpochs = std::max<std::uint64_t>(
                result.maxCutEpochs, rig.store.cutEpoch());
        } else {
            // ---- Op-log torn tail: a KvService on the op-log write
            // path, with a deliberately tiny (wrapping) log, takes a
            // cut in the middle of a seeded PUT stream. Recovery of
            // the resulting image must be *deterministic*: two
            // independent services recovering two copies of the same
            // durable bytes end byte-identical, and the replayed
            // state passes the version-sum audit.
            ++result.oplogTrials;

            const net::KvParams kp = oplogKvParams(16);

            ImageRig rig;
            net::KvService kv(rig.store, rig.pmem, kp);

            constexpr std::uint64_t n_puts = 48;
            const std::uint64_t cut_after = 8 + rng.below(n_puts - 16);
            Tick t = 0;
            std::uint64_t req_id = 1;
            bool cut_armed = false;
            for (std::uint64_t p = 0; p < n_puts; ++p) {
                if (p == cut_after) {
                    // Land the cut inside this PUT's append window
                    // (a few µs of parse + probes + the line store).
                    rig.store.armPowerCut(
                        t + storm.uniformIn(tickUs, 8 * tickUs),
                        rng.next());
                    cut_armed = true;
                }
                net::RpcRequest req;
                req.reqId = req_id++;
                req.client = static_cast<std::uint32_t>(p % 5);
                req.op = workload::KvOp::Put;
                req.key = 1 + rng.below(8);
                req.valueSeed = rng.next();
                req.deadline = maxTick;
                bool deferred = false;
                (void)kv.execute(t, req, &deferred);
                if (p % 4 == 3)
                    kv.logCommit(t);
                if (p % 8 == 7)
                    (void)kv.logDrain(t, 4);
            }
            if (cut_armed) {
                result.droppedWrites +=
                    rig.store.cutStats().droppedWrites;
                result.tornWrites += rig.store.cutStats().tornWrites;
                rig.store.disarmPowerCut();
            }

            // Two copies of the durable image, recovered separately.
            struct ReplayOutcome
            {
                net::KvStats kv;
                std::uint64_t scanStops = 0;
            };
            auto recoverCopy = [&kp](const mem::BackingStore &from,
                                     mem::BackingStore &copy) {
                copy.copyContentsFrom(from);
                psm::Psm psm;
                psm::PsmPort port(psm);
                mem::TimedMem pmem(port, &copy);
                net::KvService svc(copy, pmem, kp);
                Tick rt = 1 * tickSec;
                svc.recover(rt);
                svc.logDrainAll(rt);
                ReplayOutcome out;
                out.kv = svc.stats();
                if (svc.opLog())
                    out.scanStops = svc.opLog()->stats().checksumStops
                        + svc.opLog()->stats().seqStops;
                return out;
            };
            mem::BackingStore c1;
            mem::BackingStore c2;
            const ReplayOutcome r1 = recoverCopy(rig.store, c1);
            const ReplayOutcome r2 = recoverCopy(rig.store, c2);

            ++result.oplogReplayChecks;
            result.oplogRecordsReplayed +=
                r1.kv.logReplayApplied + r1.kv.logReplaySkipped;
            if (r1.scanStops > 0)
                ++result.oplogTornTails;
            if (r1.scanStops != r2.scanStops
                || r1.kv.logReplayApplied != r2.kv.logReplayApplied)
                flagViolation(result,
                              "oplog: the two recovery scans disagreed");
            if (!c1.equals(c2))
                flagViolation(result, "oplog: two recoveries of the "
                                      "same image diverged");

            // Version-sum audit on one recovered copy: every applied
            // PUT bumped exactly one key's version by one.
            {
                psm::Psm psm;
                psm::PsmPort port(psm);
                mem::TimedMem pmem(port, &c1);
                net::KvService audit(c1, pmem, kp);
                std::uint64_t version_sum = 0;
                for (std::uint64_t key = 1; key <= 8; ++key) {
                    const auto state = audit.lookup(key);
                    if (state)
                        version_sum += state->version;
                }
                if (version_sum != audit.appliedCount()
                    || audit.appliedCount()
                           != audit.appliedIds().size()
                               + audit.compactedCount()) {
                    flagViolation(result, "oplog: version sum ", version_sum,
                                  " != applied count ", audit.appliedCount());
                }
            }
        }
        ++result.trials;
        return result;
    };

    // Each note names its trial and the scenario class (i % 5) that
    // produced it.
    static constexpr const char *scenarios[] = {
        "stop-cut", "go-cut", "brownout", "storm", "oplog"};
    CompoundResult result;
    result.psu = psu.spec().name;
    stats::runGrid(compoundCounters(), config.threads,
                   stats::TrialGrid<1>{{config.trials}}, trial,
                   stats::GridFold{result, result.violationNotes},
                   [](std::uint64_t i) { return scenarios[i % 5]; });
    sim::Fnv64 fnv;
    compoundCounters().mix(fnv, result);
    result.digest = fnv.h;
    return result;
}

} // namespace lightpc::fault
