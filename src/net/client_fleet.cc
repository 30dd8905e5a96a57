#include "net/client_fleet.hh"

#include <cmath>

#include "sim/logging.hh"

namespace lightpc::net
{

ClientFleet::ClientFleet(const FleetParams &params)
    : _params(params), rng(params.seed)
{
    if (_params.clients == 0)
        fatal("ClientFleet needs at least one client");
    if (_params.arrivalsPerSec <= 0.0)
        fatal("ClientFleet arrival rate must be positive");
    if (_params.maxAttempts == 0)
        fatal("ClientFleet needs at least one attempt per request");
    clientJitter.reserve(_params.clients);
    for (std::uint32_t c = 0; c < _params.clients; ++c)
        clientJitter.emplace_back(Rng::streamSeed(_params.seed, c));
}

Tick
ClientFleet::nextInterarrival()
{
    // Exponential inter-arrival: -ln(U) / lambda, clamped away from
    // zero so two arrivals never share a tick.
    double u = rng.uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double seconds = -std::log(u) / _params.arrivalsPerSec;
    const auto ticks =
        static_cast<Tick>(seconds * static_cast<double>(tickSec));
    return ticks > 0 ? ticks : 1;
}

RpcRequest
ClientFleet::newRequest(Tick now)
{
    RpcRequest req;
    req.reqId = nextReqId++;
    req.client = static_cast<std::uint32_t>(rng.below(_params.clients));
    req.op = _params.mix.pickOp(rng);
    req.key = _params.mix.pickKey(rng);
    req.valueSeed = rng.next();
    req.scanLength = _params.mix.scanLength;
    req.attempt = 1;
    req.firstIssuedAt = now;

    Pending pending;
    pending.base = req;
    pending.attempts = 1;
    pending.op = req.op;
    outstanding.emplace(req.reqId, pending);
    if (req.op == workload::KvOp::Put)
        issuedPuts.emplace(req.reqId, PutIssue{req.key, req.valueSeed});

    ++_stats.arrivals;
    ++_stats.attempts;
    return req;
}

Tick
ClientFleet::timeoutFor(std::uint32_t client, std::uint32_t attempt)
{
    // Exponential backoff: timeout * 2^(attempt-1), capped, plus
    // jitter so a fleet stalled by the same outage does not retry in
    // lockstep. The jitter comes from the client's own stream, not
    // the shared fleet Rng: replica failover reorders which responses
    // (and therefore which timeouts) happen first, and a shared draw
    // order would let one client's redirect perturb every other
    // client's backoff schedule.
    Tick wait = _params.clientTimeout;
    for (std::uint32_t i = 1; i < attempt && wait < _params.backoffCap;
         ++i)
        wait *= 2;
    if (wait > _params.backoffCap)
        wait = _params.backoffCap;
    if (_params.retryJitter > 0)
        wait += clientJitter[client % _params.clients].below(
            _params.retryJitter);
    return wait;
}

std::optional<RpcRequest>
ClientFleet::retryAttempt(std::uint64_t req_id, Tick now,
                          std::uint32_t expected_attempt)
{
    auto it = outstanding.find(req_id);
    if (it == outstanding.end())
        return std::nullopt;  // already acknowledged
    Pending &pending = it->second;
    if (expected_attempt != 0 && pending.attempts != expected_attempt)
        return std::nullopt;  // a newer attempt is already in flight
    if (pending.attempts >= _params.maxAttempts) {
        ++_stats.failed;
        outstanding.erase(it);
        return std::nullopt;
    }
    ++pending.attempts;
    ++_stats.attempts;
    ++_stats.retries;
    RpcRequest req = pending.base;
    req.attempt = pending.attempts;
    (void)now;
    return req;
}

ClientFleet::AckOutcome
ClientFleet::onResponse(const RpcResponse &resp, Tick now)
{
    auto it = outstanding.find(resp.reqId);
    if (it == outstanding.end()) {
        ++_stats.duplicateAcks;
        return AckOutcome::Duplicate;
    }
    if (resp.status == RpcStatus::Rejected
        || resp.status == RpcStatus::DeadlineExceeded
        || resp.status == RpcStatus::NotLeader
        || resp.status == RpcStatus::ReadOnly) {
        // Server is alive but pushed back (or is the wrong replica);
        // leave the request pending so the caller retries it — the
        // armed timeout with backoff, or a fast redirect for the
        // cluster statuses.
        if (resp.status == RpcStatus::NotLeader
            || resp.status == RpcStatus::ReadOnly)
            ++_stats.redirects;
        return AckOutcome::RetriableError;
    }

    if (it->second.op == workload::KvOp::Put
        && resp.status == RpcStatus::Ok) {
        AckedPut put;
        put.reqId = resp.reqId;
        put.key = it->second.base.key;
        put.version = resp.version;
        put.ackedAt = now;
        acked.push_back(put);
        ++_stats.ackedPuts;
    }
    if (_params.recordHistory
        && it->second.op != workload::KvOp::Scan) {
        ClientOp op;
        op.reqId = resp.reqId;
        op.key = it->second.base.key;
        op.op = it->second.op;
        op.status = resp.status;
        op.version = resp.version;
        op.valueSeed = it->second.op == workload::KvOp::Put
            ? it->second.base.valueSeed
            : resp.valueSeed;
        op.invokedAt = it->second.base.firstIssuedAt;
        op.ackedAt = now;
        ops.push_back(op);
    }
    ++_stats.completed;
    outstanding.erase(it);
    return AckOutcome::Completed;
}

bool
ClientFleet::allowFastRedirect(std::uint64_t req_id)
{
    auto it = outstanding.find(req_id);
    if (it == outstanding.end())
        return false;
    if (it->second.fastRedirects >= _params.maxFastRedirects) {
        ++_stats.redirectFallbacks;
        return false;
    }
    ++it->second.fastRedirects;
    ++_stats.fastRedirects;
    return true;
}

Tick
ClientFleet::firstIssuedAt(std::uint64_t req_id) const
{
    auto it = outstanding.find(req_id);
    return it == outstanding.end() ? 0 : it->second.base.firstIssuedAt;
}

std::uint64_t
ClientFleet::putKeyOf(std::uint64_t req_id) const
{
    auto it = issuedPuts.find(req_id);
    return it == issuedPuts.end() ? 0 : it->second.key;
}

} // namespace lightpc::net
