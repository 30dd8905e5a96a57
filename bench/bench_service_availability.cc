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
 *   bench_service_availability [--cuts N] [--seed S] [--out FILE]
 *       [--runfor-ms MS] [--arrivals PER_SEC] [--clients N]
 *       [--threads N|-j N]
 *
 * The five modes (plus the SnG determinism repeat) run as one suite
 * fanned across host threads (--threads 0, the default, uses them
 * all); each run owns its platform and the suite's results are
 * identical to running the modes sequentially, digests included.
 *
 * Anchors (exit nonzero on failure):
 *  - zero invariant violations in every mode: no acked-then-lost
 *    PUT, no duplicate-applied PUT;
 *  - SnG commits its EP-cut inside the hold-up on every cut (no cold
 *    boots) and its per-cut attributable downtime is below every
 *    checkpoint baseline's best outage;
 *  - SnG-OpLog holds the same no-cold-boot/downtime anchors while
 *    its acked writes ride the log (appends, group commits, drains
 *    and replays all nonzero, acked => durable audited);
 *  - the whole run is deterministic under a fixed seed (SnG is run
 *    twice and the digests must match).
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "net/service_plane.hh"
#include "sim/parallel.hh"
#include "stats/table.hh"

using namespace lightpc;

namespace
{

double
msOf(Tick t)
{
    return t == maxTick
        ? -1.0
        : static_cast<double>(t) / static_cast<double>(tickMs);
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
    std::uint32_t cuts = 3;
    std::uint64_t seed = 42;
    std::uint64_t runforMs = 8000;
    double arrivals = 4000.0;
    std::uint32_t clients = 2000;
    unsigned threads = 0;
    std::string out = "BENCH_service.json";

    const char *flags = "[--cuts N] [--seed S] [--out FILE]"
                        " [--runfor-ms MS] [--arrivals PER_SEC]"
                        " [--clients N] [--threads N|-j N]";
    bench::parseFlags(argc, argv, flags,
                      {bench::flag("--cuts", cuts),
                       bench::flag("--seed", seed),
                       bench::flag("--out", out),
                       bench::flag("--runfor-ms", runforMs),
                       bench::flag("--arrivals", arrivals),
                       bench::flag("--clients", clients),
                       bench::threadsFlag(threads)});
    if (cuts == 0 || runforMs == 0 || arrivals <= 0.0 || clients == 0)
        bench::usage(argv[0], flags);
    threads = sim::resolveThreads(threads);

    bench::banner("Service availability",
                  "client-visible downtime of a persistent KV service"
                  " across power cycles");
    bench::paperRef("full system persistence keeps services available"
                    " through power loss at memory-bus speed, while"
                    " checkpoint baselines pay seconds per outage"
                    " (Sections V-VI)");

    auto configFor = [&](net::PersistMode mode) {
        net::ServiceConfig cfg;
        cfg.mode = mode;
        cfg.cuts = cuts;
        cfg.seed = seed;
        cfg.runFor = runforMs * tickMs;
        cfg.fleet.arrivalsPerSec = arrivals;
        cfg.fleet.clients = clients;
        return cfg;
    };

    const net::PersistMode modes[] = {
        net::PersistMode::SnG,
        net::PersistMode::OpLog,
        net::PersistMode::SysPc,
        net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc,
    };

    // One suite: the five modes plus the SnG determinism repeat,
    // fanned across the trial pool.
    std::vector<net::ServiceConfig> suite;
    for (const net::PersistMode mode : modes) {
        std::cout << "queueing " << net::persistModeName(mode)
                  << "...\n";
        suite.push_back(configFor(mode));
    }
    std::cout << "queueing "
              << net::persistModeName(net::PersistMode::SnG)
              << " again (determinism)...\n";
    suite.push_back(configFor(net::PersistMode::SnG));

    std::cout << "running the suite on " << threads
              << " thread(s)...\n\n";
    std::vector<net::ServiceResult> results =
        net::runServiceSuite(suite, threads);
    const net::ServiceResult sngRepeat = results.back();
    results.pop_back();
    const net::ServiceResult &sng = results[0];
    const net::ServiceResult &oplog = results[1];

    stats::Table table({"mode", "completed", "failed", "goodput/s",
                        "p99 ms", "p999 ms", "worst outage ms",
                        "attributable ms", "cold boots"});
    using stats::Table;
    for (const net::ServiceResult &r : results)
        table.addRow({r.modeName, std::to_string(r.completed),
                      std::to_string(r.failed), Table::num(r.goodputMean, 0),
                      Table::num(r.p99Us / 1000.0),
                      Table::num(r.p999Us / 1000.0),
                      Table::num(msOf(r.worstDowntime)),
                      Table::num(msOf(r.worstAttributable)),
                      std::to_string(r.coldBoots)});
    table.print(std::cout);

    std::cout << "\nSnG stop+go total: "
              << msOf(sng.stopTicksTotal + sng.goTicksTotal)
              << " ms over " << cuts << " cuts, ring frames"
              << " resurrected: " << sng.ringPreservedFrames << "\n";
    for (const net::ServiceResult &r : results)
        for (const std::string &note : r.violations)
            std::cout << "  VIOLATION [" << r.modeName << "] " << note
                      << "\n";

    // --- anchors --------------------------------------------------

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
        bench::check(r.completed > 0 && r.ackedPuts > 0,
                     r.modeName + ": fleet completed work and acked"
                     " PUTs");
    }

    bench::check(sng.coldBoots == 0,
                 "SnG: EP-cut committed inside the hold-up on every"
                 " cut");
    bench::check(sng.contextImagesSaved >= cuts
                     && sng.contextImagesRestored >= cuts,
                 "SnG: NIC ring context dumped and resurrected on"
                 " every cycle");
    bench::check(sng.ringPreservedFrames >= cuts,
                 "SnG: queued frames rode the DCB through every"
                 " power cycle");
    bench::check(oplog.coldBoots == 0,
                 "SnG-OpLog: EP-cut committed inside the hold-up on"
                 " every cut");
    bench::check(oplog.logAppends > 0 && oplog.logCommits > 0
                     && oplog.logDrainApplied > 0,
                 "SnG-OpLog: PUTs rode the log (appends, group"
                 " commits, drains all nonzero)");
    bench::check(oplog.logAppends
                     >= oplog.logDrainApplied + oplog.logReplayApplied,
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
        bench::check(base.coldBoots == cuts,
                     base.modeName + ": every outage cost a cold"
                     " boot");
    }
    // Attributable downtime ≈ stop + go + queue-drain slack; 100 ms
    // of slack still leaves an order of magnitude to the baselines'
    // 1.5 s cold reboot.
    bench::check(sng.worstAttributable
                     < (sng.stopTicksTotal + sng.goTicksTotal) / cuts
                           + 100 * tickMs,
                 "SnG attributable downtime within stop+go budget");
    bench::check(sng.digest == sngRepeat.digest,
                 "deterministic under fixed seed (digest match)");

    // --- JSON -----------------------------------------------------

    bench::JsonWriter json(out);
    json.field("bench", "service_availability")
        .field("seed", seed)
        .field("cuts", cuts)
        .field("runfor_ms", runforMs)
        .field("arrivals_per_sec", arrivals, "%.1f")
        .field("clients", clients)
        .field("threads", threads)
        .field("deterministic", sng.digest == sngRepeat.digest)
        .array("modes");
    for (const net::ServiceResult &r : results) {
        json.object()
            .field("mode", r.modeName)
            .field("arrivals", r.arrivals)
            .field("completed", r.completed)
            .field("failed", r.failed)
            .field("retries", r.retries)
            .field("acked_puts", r.ackedPuts)
            .field("puts_applied", r.putsApplied)
            .field("idempotent_hits", r.idempotentHits)
            .field("rejected", r.rejected)
            .field("goodput_mean", r.goodputMean, "%.1f")
            .field("latency_mean_us", r.meanUs, "%.2f")
            .field("p50_us", r.p50Us, "%.2f")
            .field("p99_us", r.p99Us, "%.2f")
            .field("p999_us", r.p999Us, "%.2f")
            .field("cold_boots", r.coldBoots)
            .field("ring_preserved_frames", r.ringPreservedFrames)
            .field("ring_frames_lost", r.ringFramesLost)
            .field("stop_ms_total", msOf(r.stopTicksTotal), "%.3f")
            .field("go_ms_total", msOf(r.goTicksTotal), "%.3f")
            .field("log_appends", r.logAppends)
            .field("log_commits", r.logCommits)
            .field("log_drain_applied", r.logDrainApplied)
            .field("log_replay_applied", r.logReplayApplied)
            .field("log_stall_drains", r.logStallDrains)
            .field("dedup_compactions", r.dedupCompactions)
            .field("dedup_evicted", r.dedupEvicted)
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
    if (!json.finish())
        return 1;

    return bench::result();
}
