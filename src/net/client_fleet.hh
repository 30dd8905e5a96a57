/**
 * @file
 * Open-loop client load generator.
 *
 * Models thousands of independent clients behind a Poisson arrival
 * process: new logical requests arrive at a configured aggregate
 * rate regardless of how the server is doing (open loop — an outage
 * does not pause the offered load, it piles it up). Each logical
 * request retries on timeout with exponential backoff and jitter,
 * re-sending the *same* request ID so the server's dedup set keeps
 * retries idempotent; after the attempt budget it gives up.
 *
 * The fleet also keeps the verification oracle: which PUTs were
 * acknowledged (and must therefore be durable) and which request IDs
 * belong to which key (so per-key version counters can be audited
 * against the server's persistent dedup set).
 */

#ifndef LIGHTPC_NET_CLIENT_FLEET_HH
#define LIGHTPC_NET_CLIENT_FLEET_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/rpc.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "workload/service_mix.hh"

namespace lightpc::net
{

/** Fleet sizing and client-side retry policy. */
struct FleetParams
{
    /** Simulated client endpoints (request fan-in). */
    std::uint32_t clients = 2000;

    /** Aggregate open-loop arrival rate. */
    double arrivalsPerSec = 4000.0;

    /** First-attempt timeout; doubles per retry up to backoffCap. */
    Tick clientTimeout = 30 * tickMs;
    Tick backoffCap = 500 * tickMs;
    Tick retryJitter = 5 * tickMs;

    /** Total attempts per logical request (first + retries). */
    std::uint32_t maxAttempts = 9;

    /**
     * Fast (timeout-free) NOT_LEADER/READ_ONLY redirects a logical
     * request may consume before falling back to the armed timeout's
     * paced backoff. Bounds the redirect ping-pong a partitioned or
     * deposed leader can trap a client in: past the budget every
     * further attempt is paced by timeoutFor's exponential backoff.
     */
    std::uint32_t maxFastRedirects = 4;

    /**
     * Record every completed GET/PUT as a ClientOp for the
     * post-mortem history audit. Off by default: the single-machine
     * service plane has no audit to feed and skips the memory.
     */
    bool recordHistory = false;

    workload::ServiceMix mix;

    std::uint64_t seed = 1;

    /**
     * Worst-case span from a request's first send to its last
     * possible retry send: every per-attempt timeout at its jitter
     * ceiling, summed (mirrors ClientFleet::timeoutFor). A server
     * that remembers a request ID for at least this long — plus
     * wire/deadline margins, which the caller adds — can never
     * mistake a conforming client's retry for a new request.
     */
    Tick
    maxRetrySpan() const
    {
        Tick span = 0;
        Tick wait = clientTimeout;
        for (std::uint32_t attempt = 1; attempt < maxAttempts;
             ++attempt) {
            span += (wait > backoffCap ? backoffCap : wait)
                + retryJitter;
            if (wait < backoffCap)
                wait *= 2;
        }
        return span;
    }
};

/** Client-side counters. */
struct FleetStats
{
    std::uint64_t arrivals = 0;       ///< logical requests created
    std::uint64_t attempts = 0;       ///< attempts incl. retries
    std::uint64_t retries = 0;
    std::uint64_t completed = 0;      ///< acknowledged requests
    std::uint64_t failed = 0;         ///< attempt budget exhausted
    std::uint64_t duplicateAcks = 0;  ///< late acks for done requests
    std::uint64_t redirects = 0;      ///< NotLeader/ReadOnly responses
    std::uint64_t fastRedirects = 0;  ///< redirects re-sent timeout-free
    std::uint64_t redirectFallbacks = 0; ///< budget hit: paced retry
    std::uint64_t ackedPuts = 0;
};

/** Oracle record of one acknowledged PUT. */
struct AckedPut
{
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;
    std::uint64_t version = 0;  ///< version the ack reported
    Tick ackedAt = 0;
};

/**
 * One completed client operation, as the client saw it: the
 * invoke/ack window plus the acked result. The raw material of the
 * cluster::HistoryAudit linearizability check.
 */
struct ClientOp
{
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;
    workload::KvOp op = workload::KvOp::Get;
    RpcStatus status = RpcStatus::Ok;  ///< Ok or NotFound
    std::uint64_t version = 0;         ///< acked version (0 = none)
    std::uint64_t valueSeed = 0;       ///< PUT: payload; GET: observed
    Tick invokedAt = 0;                ///< first-issue tick
    Tick ackedAt = 0;                  ///< completing-ack tick
};

/** What one issued PUT carried (acked or not) — phantom-read oracle. */
struct PutIssue
{
    std::uint64_t key = 0;
    std::uint64_t valueSeed = 0;
};

/**
 * The fleet. Passive: the service plane owns the event queue and
 * calls in; the fleet owns request identity, retry state, and the
 * oracle ledger.
 */
class ClientFleet
{
  public:
    explicit ClientFleet(const FleetParams &params = FleetParams());

    const FleetParams &params() const { return _params; }
    const FleetStats &stats() const { return _stats; }

    /** Exponential inter-arrival draw for the Poisson process. */
    Tick nextInterarrival();

    /** Create a new logical request (attempt 1). */
    RpcRequest newRequest(Tick now);

    /**
     * Timeout fired for @p req_id: either the next attempt to send
     * (same reqId, bumped attempt counter) or nullopt when the
     * request is done, unknown, or out of attempts (then it counts
     * as failed). A nonzero @p expected_attempt makes the call a
     * guarded retry: it only fires when that attempt is still the
     * latest one issued — a fast redirect that already re-sent the
     * request leaves the old attempt's armed timeout stale, and the
     * guard keeps the stale timer from issuing a duplicate attempt.
     */
    std::optional<RpcRequest> retryAttempt(
        std::uint64_t req_id, Tick now,
        std::uint32_t expected_attempt = 0);

    /**
     * Client-side wait before retrying attempt @p attempt of
     * @p client. The jitter draw comes from the client's own
     * Rng::streamSeed(seed, clientId) stream, so one client's retry
     * schedule is independent of every other client's draw order —
     * stable under replica-failover response reordering.
     */
    Tick timeoutFor(std::uint32_t client, std::uint32_t attempt);

    /** What a delivered response did to the logical request. */
    enum class AckOutcome
    {
        Completed,       ///< first ack: request done
        Duplicate,       ///< request already done (late/dup ack)
        RetriableError,  ///< backpressure/deadline: retry on timeout
    };

    /** Deliver a response to its client. */
    AckOutcome onResponse(const RpcResponse &resp, Tick now);

    /**
     * May @p req_id take one more fast (timeout-free) redirect hop?
     * Consumes one unit of the request's maxFastRedirects budget on
     * grant; past the budget it returns false (counted as a
     * redirectFallback) and the caller must let the armed timeout's
     * paced backoff re-send instead.
     */
    bool allowFastRedirect(std::uint64_t req_id);

    bool isOutstanding(std::uint64_t req_id) const
    {
        return outstanding.find(req_id) != outstanding.end();
    }

    /** First-issue tick of an outstanding request (0 if unknown). */
    Tick firstIssuedAt(std::uint64_t req_id) const;

    // --- oracle ---------------------------------------------------

    /** Every acknowledged PUT so far (append order). */
    const std::vector<AckedPut> &ackedPuts() const { return acked; }

    /** Key of a PUT request ID (any PUT ever issued), 0 if unknown. */
    std::uint64_t putKeyOf(std::uint64_t req_id) const;

    /** Every PUT ever issued (acked or not), by request ID. */
    const std::unordered_map<std::uint64_t, PutIssue> &
    putIssues() const
    {
        return issuedPuts;
    }

    /** Completed-op history (recordHistory only; completion order). */
    const std::vector<ClientOp> &history() const { return ops; }

  private:
    struct Pending
    {
        RpcRequest base;            ///< attempt-1 form
        std::uint32_t attempts = 1; ///< attempts issued so far
        std::uint32_t fastRedirects = 0;  ///< budget consumed
        workload::KvOp op = workload::KvOp::Get;
    };

    FleetParams _params;
    FleetStats _stats;
    Rng rng;
    std::vector<Rng> clientJitter;  ///< per-client backoff streams
    std::uint64_t nextReqId = 1;
    std::unordered_map<std::uint64_t, Pending> outstanding;
    std::unordered_map<std::uint64_t, PutIssue> issuedPuts;
    std::vector<AckedPut> acked;
    std::vector<ClientOp> ops;
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_CLIENT_FLEET_HH
