/**
 * @file
 * Client-visible availability and tail-latency recorder.
 *
 * Tracks what the *clients* observe: the end-to-end latency
 * distribution (first issue to acknowledgement, so retries and outage
 * dwell count against the tail), and per-outage downtime — the gap
 * between the last acknowledgement before a power event and the
 * first one served after it. The downtime attributable to the
 * persistence mechanism is that gap minus the AC-off dwell, which
 * every mode pays equally.
 */

#ifndef LIGHTPC_NET_AVAILABILITY_HH
#define LIGHTPC_NET_AVAILABILITY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/ticks.hh"
#include "stats/histogram.hh"

namespace lightpc::net
{

/** One power event as the clients experienced it. */
struct OutageRecord
{
    Tick eventAt = 0;             ///< power-event interrupt tick
    Tick lastSuccessBefore = 0;   ///< latest ack preceding the event
    Tick firstSuccessAfter = 0;   ///< earliest ack *served* after it
    bool closed = false;          ///< saw a post-event-served success

    /** Client-visible downtime (maxTick while still open). */
    Tick
    downtime() const
    {
        if (!closed)
            return maxTick;
        return firstSuccessAfter - lastSuccessBefore;
    }
};

/** One power event as a plane reports it. */
struct ServiceOutage
{
    Tick eventAt = 0;
    Tick downtime = 0;      ///< client-visible ack gap (maxTick: open)
    Tick attributable = 0;  ///< downtime minus the AC-off dwell
    bool coldBoot = false;  ///< recovery had no usable commit
};

/**
 * Report @p rec with the AC-off dwell, which every mode pays equally,
 * taken out of its downtime. An outage that never closed reports
 * maxTick as both its downtime and its attributable share.
 */
inline ServiceOutage
serviceOutage(const OutageRecord &rec, Tick off_dwell,
              bool cold_boot = false)
{
    ServiceOutage o;
    o.eventAt = rec.eventAt;
    o.downtime = rec.downtime();
    o.attributable = o.downtime == maxTick
        ? maxTick
        : (o.downtime > off_dwell ? o.downtime - off_dwell : 0);
    o.coldBoot = cold_boot;
    return o;
}

/**
 * The recorder. The service plane calls onSuccess() for every
 * acknowledged request and outageBegin() when a power event fires.
 */
class AvailabilityRecorder
{
  public:
    /**
     * An acknowledgement reached a client. @p served_at is when the
     * server generated the response: an outage only closes on an ack
     * *served* after its power event — a straggler frame that was on
     * the wire when power died still delivers, but it proves nothing
     * about the service being back.
     */
    void
    onSuccess(Tick now, Tick first_issued_at, Tick served_at)
    {
        lat.add(now - first_issued_at);
        lastSuccess = now;
        for (OutageRecord &o : outages) {
            if (o.closed)
                continue;
            if (served_at > o.eventAt) {
                o.firstSuccessAfter = now;
                o.closed = true;
            } else if (served_at < o.eventAt
                       && now > o.lastSuccessBefore) {
                // A straggler served before the event is still a
                // client-visible success: it narrows the gap even
                // though it cannot close it. Strictly before: an ack
                // stamped exactly at the event tick (e.g. a batch
                // flushed as the rails failed) proves nothing about
                // either side of the cut, and it may ride a preserved
                // ring and deliver long after restoration — letting
                // it narrow would push lastSuccessBefore to that late
                // delivery and under-count the whole outage.
                o.lastSuccessBefore = now;
            }
        }
    }

    /** A power event fired; opens an outage record. */
    void
    outageBegin(Tick event_at)
    {
        OutageRecord o;
        o.eventAt = event_at;
        o.lastSuccessBefore = lastSuccess;
        outages.push_back(o);
    }

    /**
     * Fold another replica's recorder into this one (fleet-level
     * availability from per-replica views). Commutative up to the
     * final ordering: the latency merges are order-free, and the
     * outage ledger is re-sorted into a canonical (eventAt,
     * replica-agnostic field) order afterwards — so folding replicas
     * 0..N-1 in any order yields byte-identical state.
     */
    void
    merge(const AvailabilityRecorder &other)
    {
        lat.merge(other.lat);
        if (other.lastSuccess > lastSuccess)
            lastSuccess = other.lastSuccess;
        outages.insert(outages.end(), other.outages.begin(),
                       other.outages.end());
        std::sort(outages.begin(), outages.end(),
                  [](const OutageRecord &a, const OutageRecord &b) {
                      if (a.eventAt != b.eventAt)
                          return a.eventAt < b.eventAt;
                      if (a.lastSuccessBefore != b.lastSuccessBefore)
                          return a.lastSuccessBefore
                              < b.lastSuccessBefore;
                      if (a.firstSuccessAfter != b.firstSuccessAfter)
                          return a.firstSuccessAfter
                              < b.firstSuccessAfter;
                      return a.closed < b.closed;
                  });
    }

    Tick lastSuccessAt() const { return lastSuccess; }
    const std::vector<OutageRecord> &outageRecords() const
    {
        return outages;
    }
    const stats::Histogram &latency() const { return lat; }

  private:
    Tick lastSuccess = 0;
    stats::Histogram lat;           ///< ticks, first issue -> ack
    std::vector<OutageRecord> outages;
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_AVAILABILITY_HH
