/**
 * @file
 * Replicated KV cluster: N independent LightPC machines behind a
 * load-balancer model, primary/backup replication with epoch-numbered
 * leader election, and fleet-level availability under rack-correlated
 * cut storms.
 *
 * Each replica is a full platform::System — its own kernel, NIC,
 * OC-PMEM backing store (where its power cuts are armed), and
 * KvService — so a power cut takes down one *machine*, not a thread.
 * The replication protocol is a compact Raft-shaped primary/backup
 * scheme:
 *
 *  - The leader assigns each acked PUT a (seq, epoch, version) and
 *    proposes it to the followers over simulated NIC links
 *    (serialization at 10 Gbit/s plus 15 us propagation, per
 *    destination). Followers durably stage the record (a small undo
 *    transaction over the replica's own pool metadata) before
 *    acking; the leader applies and acks the client only once a
 *    write quorum holds the record, in sequence order. A chain check
 *    (the proposed record must extend the follower's verified prefix
 *    with a matching predecessor epoch) gives the log-matching
 *    property, so apply-at-commit can never install a record a
 *    different leader's chain committed differently.
 *
 *  - Elections are epoch-numbered with durable votes (the encoded
 *    vote word rides the pool's root header, so a replica cannot
 *    vote twice in one epoch across a crash) and Raft's completeness
 *    restriction: a candidate must advertise a (lastEpoch, lastSeq)
 *    at least as up-to-date as the voter's. Split-brain prevention
 *    is *audited*, not assumed: every client ack records
 *    (epoch -> acking leader), and two leaders acking in one epoch
 *    is an invariant violation.
 *
 *  - A replica returning from an outage catches up by delta: the
 *    leader serves the missed committed records from its in-DRAM
 *    journal window. A replica that cold-booted (every checkpointing
 *    baseline; SnG only after a failed EP-cut) lost its journal and
 *    admission state and was down ~15x longer, so the journal window
 *    has moved past it and it needs a *full* state resync
 *    (a 512 MiB state image over the link) before it counts toward the
 *    write quorum again. That asymmetry — Stop-and-Go resumes with
 *    its volatile replication state intact, checkpointing baselines
 *    re-enter through cold boot + full resync — is the paper's
 *    single-node recovery gap compounded at fleet level.
 *
 *  - While a leader holds no write quorum it degrades gracefully:
 *    GETs still serve (any live replica serves reads; stale reads
 *    are the documented model), PUTs get READ_ONLY and clients
 *    retry; service resumes automatically when a rejoiner syncs.
 *    Followers answer PUTs with NOT_LEADER plus a leader hint, and
 *    clients fast-redirect with a guarded retry.
 *
 * Storm schedules come from fault::CutStorm::correlated() — a pure
 * function of the trial seed, never of who leads at run time — so
 * the same schedule replays against every persistence mode and the
 * availability comparison is apples-to-apples.
 */

#ifndef LIGHTPC_CLUSTER_CLUSTER_HH
#define LIGHTPC_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/net_nemesis.hh"
#include "net/availability.hh"
#include "net/machine.hh"
#include "sim/ticks.hh"

namespace lightpc::cluster
{

/**
 * One cluster experiment. The machine knobs (net::MachineParams) apply
 * to every replica; the kernel population defaults small, since a
 * trial holds N machines. The control-plane timers, link model and
 * journal window are constants of the plane (cluster.cc).
 */
struct ClusterConfig : net::MachineParams
{
    ClusterConfig()
    {
        userProcesses = 6;
        kernelThreads = 4;
        deviceCount = 12;
    }

    net::PersistMode mode = net::PersistMode::SnG;

    /** Fleet shape. */
    std::uint32_t replicas = 3;
    std::uint32_t racks = 2;

    /** Arrivals are generated for this long; then the run drains. */
    Tick runFor = 2 * tickSec;
    Tick drainGrace = 2 * tickSec;

    /** Rack-correlated cut storms (see CutStorm::correlated). */
    std::size_t storms = 2;
    std::uint32_t stormRackSpan = 1;
    Tick stormWindow = 8 * tickMs;

    /**
     * Per-machine energy-storage aging spread in [0, 1]. Each
     * replica's stored-energy hold-up is derated by a seeded
     * pre-aged storage cell: replica i wears by uniform
     * [0, agingSpread] of its rated cycle life, shrinking its
     * effective hold-up toward the cell's end-of-life fraction. 0
     * (default) gives every replica exactly `holdup` — the legacy
     * fleet, bit for bit.
     */
    double agingSpread = 0.0;

    /**
     * Failed resume attempts before a replica's supervisor escalates
     * to a degraded cold boot (the K of fault::RecoverySupervisor;
     * retries back off as fault::SupervisorConfig does).
     */
    std::uint32_t maxResumeAttempts = 4;

    /**
     * Adversarial network plane over every replica<->replica link
     * (drops, duplicates, reordering jitter, link flaps, rack
     * partitions). Inert by default: legacy runs are bit-identical
     * with the nemesis unconfigured.
     */
    fault::NemesisConfig nemesis;

    std::uint64_t seed = 42;
};

/** Everything one cluster run produces. */
struct ClusterResult
{
    net::PersistMode mode = net::PersistMode::SnG;
    std::string modeName;
    std::uint32_t replicas = 0;
    std::uint64_t cutsInjected = 0;

    // Client side.
    std::uint64_t arrivals = 0;
    std::uint64_t attempts = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t redirects = 0;
    std::uint64_t ackedPuts = 0;

    // Control plane.
    std::uint64_t elections = 0;      ///< candidacies started
    std::uint64_t leaderChanges = 0;  ///< becomeLeader events
    std::uint64_t stepDowns = 0;
    std::uint64_t proposals = 0;
    std::uint64_t commits = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t ctrlDrops = 0;      ///< messages lost to dead replicas
    std::uint64_t preVoteRounds = 0;  ///< pre-vote probes started
    std::uint64_t preVotesGranted = 0;
    std::uint64_t electionsSuppressed = 0; ///< probes that died quorumless
    std::uint64_t retransmits = 0;    ///< records re-sent to laggards
    std::uint64_t syncRetries = 0;    ///< SyncRequests re-issued

    // Network nemesis (zero when the nemesis is unconfigured).
    std::uint64_t msgsDropped = 0;    ///< Bernoulli losses
    std::uint64_t msgsDuplicated = 0;
    std::uint64_t msgsReordered = 0;  ///< FIFO inversions delivered
    std::uint64_t partitionCuts = 0;  ///< eaten by a partition window
    std::uint64_t flapCuts = 0;       ///< eaten by a link flap

    // Catch-up.
    std::uint64_t syncDeltas = 0;
    std::uint64_t syncFulls = 0;
    std::uint64_t syncRecords = 0;    ///< records shipped by deltas
    std::uint64_t syncBytes = 0;      ///< total sync wire bytes

    // Power side.
    std::uint64_t resumes = 0;        ///< warm Stop-and-Go recoveries
    std::uint64_t coldBoots = 0;
    std::uint64_t resumeFailures = 0; ///< cuts landing mid-recovery
    std::uint64_t degradedColdBoots = 0;
    std::uint64_t ringPreservedFrames = 0;
    std::uint64_t ringFramesLost = 0;

    // Fleet availability over [0, runFor + drainGrace].
    Tick writeUnavailableTicks = 0;   ///< no quorum-backed leader
    Tick readUnavailableTicks = 0;    ///< no replica can serve at all
    double writeAvailability = 0.0;
    double readAvailability = 0.0;
    Tick worstWriteGap = 0;           ///< longest write-unavailable span
    std::uint64_t readOnlySpans = 0;  ///< write lost while reads held

    /** Per-replica power events as the clients saw them (merged). */
    std::vector<net::ServiceOutage> outages;

    // Client-side redirect pacing.
    std::uint64_t fastRedirects = 0;
    std::uint64_t redirectFallbacks = 0; ///< budget hit: paced retry
    std::uint64_t duplicateAckAudits = 0;///< benign dup acks deduped

    // History audit (cluster::auditHistory over the fleet's records).
    std::uint64_t auditedWrites = 0;
    std::uint64_t auditedReads = 0;
    std::uint64_t staleReads = 0;        ///< metric (documented model)
    std::uint64_t notFoundReads = 0;

    // Invariant audit (all must stay zero / empty).
    std::uint64_t lostAckedPuts = 0;
    std::uint64_t splitBrainEpochs = 0;  ///< two leaders acked one epoch
    std::uint64_t divergentCommits = 0;  ///< one seq, two contents
    std::uint64_t lostUpdates = 0;       ///< one key version, two acks
    std::uint64_t orderInversions = 0;   ///< real-time write order broken
    std::uint64_t phantomReads = 0;      ///< value no client wrote
    std::uint64_t valueDivergences = 0;  ///< one version, two payloads
    std::vector<std::string> violations;

    /** FNV digest of the run's observable counters (determinism). */
    std::uint64_t digest = 0;
};

/**
 * Reject degenerate cluster configurations with a clear message: a
 * replica count of zero (or past the 64-wide ack mask), more racks
 * than replicas, a storm span wider than the rack set, a zero
 * resume attempt budget, and every degenerate machine knob
 * (net::validateMachineParams: zero clients, zero-capacity rings,
 * ...).
 * Called at runCluster entry; exposed for tests.
 */
void validateClusterConfig(const ClusterConfig &config);

/** Run one cluster configuration to completion. */
ClusterResult runCluster(const ClusterConfig &config);

} // namespace lightpc::cluster

#endif // LIGHTPC_CLUSTER_CLUSTER_HH
