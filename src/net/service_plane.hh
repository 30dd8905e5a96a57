/**
 * @file
 * The network service plane: end-to-end client-visible availability
 * of a persistent KV service across power cycles.
 *
 * runService() runs one net::Machine (machine.hh: a LightPC platform
 * with a NicDevice in the dpm_list and a KvService over a persistent
 * ObjectPool) and drives an open-loop ClientFleet against it on the
 * discrete-event queue. Seeded power cuts interrupt the run; what
 * happens next depends on the persistence mode:
 *
 *  - SnG        — PecOS Stop-and-Go: the EP-cut commits within the
 *                 PSU hold-up, the NIC rings ride the DCB through the
 *                 outage, and Go resumes the service with its queued
 *                 traffic intact.
 *  - SysPc      — hibernate-style full-system image, attempted at the
 *                 power event; the dump cannot beat the hold-up, so
 *                 recovery is a cold reboot.
 *  - SCheckPc   — periodic BLCR-style dumps that stall the service
 *                 (stop-the-world), plus a cold reboot on power loss.
 *  - ACheckPc   — per-request synchronous checkpoint copies, plus a
 *                 cold reboot on power loss.
 *  - OpLog      — SnG power machinery plus a Persimmon-style
 *                 persistent op log: PUTs append one record and ack
 *                 on group commit (batched tail persist), a
 *                 background drain applies committed records to the
 *                 pool, and recovery replays the log from the
 *                 durable head (torn tail discarded by checksum).
 *
 * All modes share the same transactional pool, so *durability* of
 * acknowledged writes holds everywhere (that is an invariant, checked
 * against the fleet's ledger); what differs is the client-visible
 * downtime and tail latency — the paper's Fig. 19-22 argument
 * recast as a service-level benchmark.
 */

#ifndef LIGHTPC_NET_SERVICE_PLANE_HH
#define LIGHTPC_NET_SERVICE_PLANE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/availability.hh"
#include "net/machine.hh"
#include "sim/ticks.hh"

namespace lightpc::net
{

/** One experiment configuration: one machine under an open-loop fleet. */
struct ServiceConfig : MachineParams
{
    PersistMode mode = PersistMode::SnG;

    /** Arrivals are generated for this long; then the run drains. */
    Tick runFor = 8 * tickSec;

    /** Extra drain time after the last arrival. */
    Tick drainGrace = 3 * tickSec;

    /**
     * Power events, evenly spaced inside runFor; each waits (probing
     * every 37 us, up to half the spacing) until the service is under
     * load.
     */
    std::uint32_t cuts = 3;

    /**
     * Cut storms: after each scheduled cut fires, this many follow-up
     * cuts chase the recovery. Each is scheduled stormSpacing past
     * the previous restoration and fires as soon as the service is
     * back up (no under-load wait) — the compound-failure case where
     * the next outage lands inside the recovery from the last.
     */
    std::uint32_t stormFollowUps = 0;
    Tick stormSpacing = 30 * tickMs;

    std::uint64_t seed = 42;
};

/** Everything one run produces. */
struct ServiceResult
{
    PersistMode mode = PersistMode::SnG;
    std::string modeName;

    FleetStats fleet;      ///< client side
    KvStats kv;            ///< server, op-log and dedup-table counters
    NicStats nic;          ///< frames and ring high-water marks
    MachineStats machine;  ///< power path: boots, ring images, Stop/Go

    /** Storm follow-up cuts that fired (chasing recoveries). */
    std::uint64_t stormFollowUpCuts = 0;

    // Latency, first issue -> ack, in microseconds.
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    /** Mean goodput over the arrival phase (completions / runFor). */
    double goodputMean = 0.0;

    std::vector<ServiceOutage> outages;
    Tick worstDowntime = 0;
    Tick worstAttributable = 0;

    // Invariant audit (all must be zero / empty).
    std::uint64_t lostAckedPuts = 0;    ///< acked but not in dedup set
    std::uint64_t duplicateApplied = 0; ///< version/dedup mismatches
    std::vector<std::string> violations;

    /** FNV digest of the run's observable counters (determinism). */
    std::uint64_t digest = 0;
};

/**
 * Reject degenerate configurations with a clear message instead of
 * letting them silently degenerate (a zero-client fleet, a
 * zero-capacity ring that can never carry a frame, storm follow-ups
 * with no storm to follow). Called at runService entry; exposed for
 * tests.
 */
void validateServiceConfig(const ServiceConfig &config);

/**
 * Run one configuration to completion. A run owns its whole platform
 * and event queue, so runs on different host threads are independent.
 */
ServiceResult runService(const ServiceConfig &config);

} // namespace lightpc::net

#endif // LIGHTPC_NET_SERVICE_PLANE_HH
