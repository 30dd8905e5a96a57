/**
 * @file
 * Service-level availability across power cycles (the paper's full
 * system persistence argument, recast as a client-visible benchmark).
 *
 * An open-loop client fleet drives a persistent KV service through
 * seeded power cuts under five persistence modes — LightPC-SnG,
 * SnG-OpLog (the persistent op-log fast path with group-commit
 * acks), SysPC, S-CheckPC, A-CheckPC. All modes share the same
 * transactional object pool, so acked-write durability must hold
 * everywhere (an invariant the fleet's ledger audits); what separates
 * them is the client-visible downtime per outage and the latency
 * tail.
 *
 *   bench_service_availability [--cuts N] [--runfor-ms MS]
 *       [--arrivals PER_SEC] [--clients N] [--seed S]
 *       [--threads N|-j N] [--out FILE]
 *
 * The shared flags are campaignMain()'s (campaign_io.hh). The five
 * modes are mapped across host threads by stats::mapGrid, one run per
 * mode; each run owns its platform, so the results are identical to
 * running the modes sequentially, digests included
 * (ParallelDeterminism.ServiceSuiteMatchesSequentialRuns and the CI
 * determinism job's 1- vs 4-thread JSON diff check that).
 *
 * Anchors (exit nonzero on failure):
 *  - zero invariant violations in every mode: no acked-then-lost
 *    PUT, no duplicate-applied PUT;
 *  - SnG commits its EP-cut inside the hold-up on every cut (no cold
 *    boots) and its per-cut attributable downtime is below every
 *    checkpoint baseline's best outage;
 *  - SnG-OpLog holds the same no-cold-boot/downtime anchors while
 *    its acked writes ride the log (appends, group commits, drains
 *    and replays all nonzero, acked => durable audited).
 */

#include <algorithm>
#include <string>
#include <vector>

#include "campaign_io.hh"
#include "net/service_plane.hh"
#include "stats/table.hh"
#include "stats/trial_grid.hh"

using namespace lightpc;

namespace
{

/** @p t in milliseconds; an outage still open (maxTick) reads -1. */
double
msOf(Tick t)
{
    return t == maxTick ? -1.0 : ticksToMs(t);
}

/** Smallest attributable downtime across a run's closed outages. */
Tick
bestAttributable(const net::ServiceResult &r)
{
    Tick best = maxTick;
    for (const net::ServiceOutage &o : r.outages)
        best = std::min(best, o.attributable);
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using Results = std::vector<net::ServiceResult>;
    net::ServiceConfig suite;
    unsigned threads = 0;

    const bench::Campaign<Results> campaign{
        .bench = "service_availability",
        .out = "BENCH_service.json",
        .title = "Service availability",
        .what = "client-visible downtime of a persistent KV service"
                " across power cycles",
        .paper = "full system persistence keeps services available"
                 " through power loss at memory-bus speed, while"
                 " checkpoint baselines pay seconds per outage"
                 " (Sections V-VI)",
        .flags = {bench::flag("--cuts", "N", suite.cuts),
                  bench::msFlag("--runfor-ms", suite.runFor),
                  bench::flag("--arrivals", "PER_SEC",
                              suite.fleet.arrivalsPerSec),
                  bench::flag("--clients", "N", suite.fleet.clients)},
        .valid = [&] {
            return suite.cuts > 0 && suite.runFor > 0
                   && suite.fleet.arrivalsPerSec > 0.0
                   && suite.fleet.clients > 0;
        },
        // One run per mode, each owning its platform, mapped across
        // the trial pool like every campaign's grid.
        .run = [&] {
            std::vector<net::ServiceConfig> configs;
            for (const net::PersistMode mode :
                 {net::PersistMode::SnG, net::PersistMode::OpLog,
                  net::PersistMode::SysPc, net::PersistMode::SCheckPc,
                  net::PersistMode::ACheckPc}) {
                std::cout << "queueing " << net::persistModeName(mode)
                          << "...\n";
                net::ServiceConfig config = suite;
                config.mode = mode;
                configs.push_back(config);
            }
            std::cout << "running the suite on " << threads
                      << " thread(s)...\n\n";
            return stats::mapGrid(
                threads, stats::TrialGrid<2>{{configs.size(), 1}},
                [&configs](std::uint64_t i) {
                    return net::runService(configs[i]);
                });
        },
        .table = [&](const Results &results) {
            using stats::Table;
            Table table({"mode", "completed", "failed", "goodput/s",
                         "p99 ms", "p999 ms", "worst outage ms",
                         "attributable ms", "cold boots"});
            for (const net::ServiceResult &r : results)
                table.addRow({r.modeName, std::to_string(r.fleet.completed),
                              std::to_string(r.fleet.failed),
                              Table::num(r.goodputMean, 0),
                              Table::num(r.p99Us / 1000.0),
                              Table::num(r.p999Us / 1000.0),
                              Table::num(msOf(r.worstDowntime)),
                              Table::num(msOf(r.worstAttributable)),
                              std::to_string(r.machine.coldBoots)});
            table.print(std::cout);

            const net::ServiceResult &sng = results[0];
            std::cout << "\nSnG stop+go total: "
                      << msOf(sng.machine.stopTicks + sng.machine.goTicks)
                      << " ms over " << suite.cuts << " cuts, ring frames"
                      << " resurrected: " << sng.machine.ringPreservedFrames
                      << "\n";
        },
        .notes = [](const Results &results) {
            std::vector<std::string> notes;
            for (const net::ServiceResult &r : results)
                for (const std::string &note : r.violations)
                    notes.push_back("[" + r.modeName + "] " + note);
            return notes;
        },
        .anchors = [&](const Results &results) {
            const std::uint32_t cuts = suite.cuts;
            const net::ServiceResult &sng = results[0];
            const net::ServiceResult &oplog = results[1];
            for (const net::ServiceResult &r : results) {
                bench::check(r.violations.empty(),
                             r.modeName + ": zero invariant violations");
                bench::check(r.lostAckedPuts == 0,
                             r.modeName + ": no acked-then-lost PUT");
                bench::check(r.duplicateApplied == 0,
                             r.modeName + ": no duplicate-applied PUT");
                bench::check(r.outages.size() == cuts,
                             r.modeName + ": every cut produced an outage"
                             " record");
                bool closed = true;
                for (const net::ServiceOutage &o : r.outages)
                    closed = closed && o.downtime != maxTick;
                bench::check(closed,
                             r.modeName + ": service recovered after every"
                             " outage");
                bench::check(r.fleet.completed > 0 && r.fleet.ackedPuts > 0,
                             r.modeName + ": fleet completed work and acked"
                             " PUTs");
            }

            bench::check(sng.machine.coldBoots == 0,
                         "SnG: EP-cut committed inside the hold-up on every"
                         " cut");
            bench::check(sng.machine.contextImagesSaved >= cuts
                             && sng.machine.contextImagesRestored >= cuts,
                         "SnG: NIC ring context dumped and resurrected on"
                         " every cycle");
            bench::check(sng.machine.ringPreservedFrames >= cuts,
                         "SnG: queued frames rode the DCB through every"
                         " power cycle");
            bench::check(oplog.machine.coldBoots == 0,
                         "SnG-OpLog: EP-cut committed inside the hold-up on"
                         " every cut");
            bench::check(oplog.kv.logAppends > 0 && oplog.kv.logCommits > 0
                             && oplog.kv.logDrainApplied > 0,
                         "SnG-OpLog: PUTs rode the log (appends, group"
                         " commits, drains all nonzero)");
            const net::KvStats &log = oplog.kv;
            bench::check(log.logAppends
                             >= log.logDrainApplied + log.logReplayApplied,
                         "SnG-OpLog: records applied never exceed records"
                         " appended");
            for (std::size_t i = 2; i < results.size(); ++i) {
                const net::ServiceResult &base = results[i];
                bench::check(sng.worstAttributable < bestAttributable(base),
                             "SnG worst attributable downtime below "
                                 + base.modeName + "'s best outage");
                bench::check(oplog.worstAttributable < bestAttributable(base),
                             "SnG-OpLog worst attributable downtime below "
                                 + base.modeName + "'s best outage");
                bench::check(sng.p999Us < base.p999Us,
                             "SnG p999 latency below " + base.modeName
                                 + "'s");
                bench::check(oplog.p999Us < base.p999Us,
                             "SnG-OpLog p999 latency below " + base.modeName
                                 + "'s");
                bench::check(base.machine.coldBoots == cuts,
                             base.modeName + ": every outage cost a cold"
                             " boot");
            }
            // Attributable downtime ≈ stop + go + queue-drain slack; 100 ms
            // of slack still leaves an order of magnitude to the baselines'
            // 1.5 s cold reboot.
            const Tick stopGo = sng.machine.stopTicks + sng.machine.goTicks;
            bench::check(sng.worstAttributable < stopGo / cuts + 100 * tickMs,
                         "SnG attributable downtime within stop+go budget");
        },
        .json = [&](bench::JsonWriter &json, const Results &results) {
            json.field("seed", suite.seed)
                .field("cuts", suite.cuts)
                .field("runfor_ms", suite.runFor / tickMs)
                .field("arrivals_per_sec", suite.fleet.arrivalsPerSec,
                       "%.1f")
                .field("clients", suite.fleet.clients)
                .field("threads", threads)
                .array("modes");
            for (const net::ServiceResult &r : results) {
                json.object()
                    .field("mode", r.modeName)
                    .field("arrivals", r.fleet.arrivals)
                    .field("completed", r.fleet.completed)
                    .field("failed", r.fleet.failed)
                    .field("retries", r.fleet.retries)
                    .field("acked_puts", r.fleet.ackedPuts)
                    .field("puts_applied", r.kv.putsApplied)
                    .field("idempotent_hits", r.kv.idempotentHits)
                    .field("rejected", r.kv.rejected)
                    .field("goodput_mean", r.goodputMean, "%.1f")
                    .field("latency_mean_us", r.meanUs, "%.2f")
                    .field("p50_us", r.p50Us, "%.2f")
                    .field("p99_us", r.p99Us, "%.2f")
                    .field("p999_us", r.p999Us, "%.2f")
                    .field("cold_boots", r.machine.coldBoots)
                    .field("ring_preserved_frames",
                           r.machine.ringPreservedFrames)
                    .field("ring_frames_lost", r.machine.ringFramesLost)
                    .field("stop_ms_total", msOf(r.machine.stopTicks), "%.3f")
                    .field("go_ms_total", msOf(r.machine.goTicks), "%.3f")
                    .field("log_appends", r.kv.logAppends)
                    .field("log_commits", r.kv.logCommits)
                    .field("log_drain_applied", r.kv.logDrainApplied)
                    .field("log_replay_applied", r.kv.logReplayApplied)
                    .field("log_stall_drains", r.kv.logStallDrains)
                    .field("dedup_compactions", r.kv.dedupCompactions)
                    .field("dedup_evicted", r.kv.dedupEvicted)
                    .field("lost_acked_puts", r.lostAckedPuts)
                    .field("duplicate_applied", r.duplicateApplied)
                    .field("violations", r.violations.size())
                    .digest(r.digest)
                    .array("outages");
                for (const net::ServiceOutage &o : r.outages)
                    json.object()
                        .field("event_ms", msOf(o.eventAt), "%.2f")
                        .field("downtime_ms", msOf(o.downtime), "%.3f")
                        .field("attributable_ms", msOf(o.attributable), "%.3f")
                        .field("cold_boot", o.coldBoot)
                        .close();
                json.close().close();
            }
        },
    };
    return bench::campaignMain(argc, argv, suite.seed, threads, campaign);
}
