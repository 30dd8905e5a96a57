/**
 * @file
 * Client-history linearizability audit for the replicated KV fleet.
 *
 * The ClientFleet records every completed operation as an invoke/ack
 * window plus the acked result (ClientOp); every issued PUT's payload
 * is registered whether or not its ack survived the network
 * (PutIssue). This module replays those records against the register
 * semantics the cluster claims — per-key versions assigned in commit
 * order, acks only after quorum commit — and classifies anomalies:
 *
 *  Violations (must be zero in every campaign):
 *  - lost update: two acked PUTs on one key report the same version —
 *    one of the writes was silently discarded or double-assigned.
 *  - order inversion: a PUT invoked after another PUT's ack completed
 *    was acked with a version at or below it. Real-time order between
 *    non-overlapping writes must be version order.
 *  - phantom read: a GET observed a value no client ever wrote to
 *    that key.
 *  - value divergence: one (key, version) pair was observed (by acks
 *    or reads) with two different payloads — replicas disagree about
 *    the content of a committed write.
 *
 *  Metrics (expected under the documented model, reported not fatal):
 *  - stale read: a GET returned a version below the acked floor at
 *    its invoke tick (including NotFound after an acked write).
 *    Follower/deposed-leader reads are allowed to be stale; the audit
 *    quantifies it.
 *
 * The ack-side ledger companion, AckAudit, is the duplicate-tolerant
 * split-brain detector used online by the cluster plane: benign
 * network duplication re-delivers the same ack verbatim, and only a
 * *different* replica acking inside one epoch is split-brain.
 */

#ifndef LIGHTPC_CLUSTER_HISTORY_AUDIT_HH
#define LIGHTPC_CLUSTER_HISTORY_AUDIT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/client_fleet.hh"

namespace lightpc::cluster
{

/** What the history audit found. */
struct HistoryAuditResult
{
    std::uint64_t writes = 0;  ///< acked PUTs audited
    std::uint64_t reads = 0;   ///< completed GETs audited

    // Violations — each also appends a message to `violations`.
    std::uint64_t lostUpdates = 0;
    std::uint64_t orderInversions = 0;
    std::uint64_t phantomReads = 0;
    std::uint64_t valueDivergences = 0;

    // Metrics.
    std::uint64_t staleReads = 0;
    std::uint64_t notFoundReads = 0;

    std::vector<std::string> violations;

    std::uint64_t
    violationCount() const
    {
        return lostUpdates + orderInversions + phantomReads
            + valueDivergences;
    }
};

/**
 * Audit one trial's completed-op history. @p ops is
 * ClientFleet::history(); @p put_issues is ClientFleet::putIssues().
 */
HistoryAuditResult auditHistory(
    const std::vector<net::ClientOp> &ops,
    const std::unordered_map<std::uint64_t, net::PutIssue> &put_issues);

/**
 * Duplicate-tolerant ack-side split-brain ledger. One PUT ack per
 * (reqId, epoch) pair is remembered with its source replica;
 * re-observing the identical triple is network duplication, while a
 * different source for the same epoch is split-brain.
 */
class AckAudit
{
  public:
    enum class Verdict
    {
        Fresh,      ///< first ack observed for this (reqId, epoch)
        Duplicate,  ///< same ack again — benign duplication
        SplitBrain, ///< different replica acked inside this epoch
    };

    Verdict observe(std::uint64_t req_id, std::uint64_t epoch,
                    std::uint32_t source);

  private:
    /**
     * Acks seen per request: (epoch, source) pairs. A retried PUT can
     * legitimately be acked under two *different* epochs (old leader's
     * delayed ack + new leader's idempotent re-ack), so dedup keys on
     * the (reqId, epoch) pair, not on reqId alone.
     */
    std::unordered_map<
        std::uint64_t,
        std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        seen;
    std::unordered_map<std::uint64_t, std::uint32_t> ownerByEpoch;
};

} // namespace lightpc::cluster

#endif // LIGHTPC_CLUSTER_HISTORY_AUDIT_HH
