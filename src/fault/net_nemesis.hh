/**
 * @file
 * Adversarial network plane for the replicated cluster.
 *
 * Every inter-replica message the cluster plane ships can be judged
 * by a NetNemesis before it is scheduled for delivery. The nemesis
 * composes five failure classes, each seeded and traffic-independent
 * where a paired comparison needs it:
 *
 *  - Bernoulli drop: each message is lost with dropProb.
 *  - Bernoulli duplication: each message arrives twice with dupProb
 *    (the copies take independent jitter, so a duplicate can overtake
 *    its original).
 *  - Latency jitter: uniform extra delay in [0, jitterMax) per
 *    message. Jitter drops the per-destination FIFO guarantee of the
 *    link model: it reorders in-flight messages.
 *  - Link flaps: scheduled windows during which one replica pair is
 *    dark in both directions.
 *  - Rack-granular partitions: scheduled windows during which one
 *    rack, the island, is separated from the rest — Symmetric (no
 *    traffic crosses), Asymmetric (the island's sends are dropped but
 *    it still hears the rest), or Partial (each cross-island replica
 *    pair is independently severed with partialCutProb; the coin is
 *    fixed per (partition, pair), so a partial partition is a stable
 *    random graph for its whole window, not per-message noise).
 *
 * Determinism contract: flap and partition verdicts are pure
 * functions of (config, time) and draw no randomness; the Bernoulli
 * and jitter draws come from one seeded stream consumed in a fixed
 * per-message order. A default-constructed config is inert — no
 * draws, no behavior change — so legacy cluster digests are
 * reproducible by simply leaving the nemesis unconfigured.
 */

#ifndef LIGHTPC_FAULT_NET_NEMESIS_HH
#define LIGHTPC_FAULT_NET_NEMESIS_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/** How a scheduled partition severs the island from the rest. */
enum class PartitionMode : std::uint8_t
{
    Symmetric,   ///< no traffic crosses, either direction
    Asymmetric,  ///< island's sends dropped; island still hears the rest
    Partial,     ///< each cross-island pair severed with partialCutProb
};

/** Display name. */
const char *partitionModeName(PartitionMode mode);

/** One scheduled link flap: the pair is dark both ways in [start, end). */
struct LinkFlap
{
    std::uint32_t a = 0;
    std::uint32_t b = 1;
    Tick start = 0;
    Tick end = 0;
};

/**
 * One scheduled rack-granular partition: the island is rack
 * firstRack, mapped to replicas by the same contiguous assignment
 * CutStorm uses (rackOf).
 */
struct PartitionSpec
{
    Tick start = 0;
    Tick end = 0;
    PartitionMode mode = PartitionMode::Symmetric;
    std::uint32_t firstRack = 0;
};

/** The nemesis shape for one cluster run. Default = inert. */
struct NemesisConfig
{
    /** Per-message Bernoulli loss / duplication probabilities. */
    double dropProb = 0.0;
    double dupProb = 0.0;

    /** Uniform extra delivery delay in [0, jitterMax) per message. */
    Tick jitterMax = 0;

    /** Partial-partition per-pair severance probability. */
    double partialCutProb = 0.5;

    std::vector<LinkFlap> flaps;
    std::vector<PartitionSpec> partitions;

    /** Anything to do at all? Inert configs must draw no randomness. */
    bool
    active() const
    {
        return dropProb > 0.0 || dupProb > 0.0 || jitterMax > 0
            || !flaps.empty() || !partitions.empty();
    }
};

/**
 * Reject malformed nemesis configurations with a clear message:
 * probabilities outside [0, 1], flaps with out-of-range or identical
 * endpoints, empty or overlapping flap windows on one pair, partition
 * windows that are empty or overlap each other, and partition islands
 * outside the rack set or in a one-rack fleet. Called from
 * validateClusterConfig; exposed for tests.
 */
void validateNemesisConfig(const NemesisConfig &config,
                           std::uint32_t replicas, std::uint32_t racks);

/** What the nemesis did to the messages it judged. */
struct NemesisStats
{
    std::uint64_t dropped = 0;        ///< Bernoulli losses
    std::uint64_t duplicated = 0;
    std::uint64_t partitionCuts = 0;  ///< eaten by a partition window
    std::uint64_t flapCuts = 0;       ///< eaten by a flap window
};

/** Verdict on one message. */
struct LinkFate
{
    bool cutByPartition = false;  ///< never arrives (partition window)
    bool cutByFlap = false;       ///< never arrives (flap window)
    bool dropped = false;         ///< Bernoulli loss of the original
    bool duplicated = false;      ///< a second copy arrives
    Tick jitter = 0;              ///< extra latency, original copy
    Tick dupJitter = 0;           ///< extra latency, duplicate copy
};

/**
 * The judge. One instance per cluster run, seeded from the trial
 * seed; judge() consumes the stream in message order.
 */
class NetNemesis
{
  public:
    NetNemesis(const NemesisConfig &config, std::uint64_t seed,
               std::uint32_t replicas, std::uint32_t racks);

    bool active() const { return _active; }
    const NemesisConfig &config() const { return cfg; }
    const NemesisStats &stats() const { return _stats; }

    /** Judge one message departing @p from -> @p to at tick @p at. */
    LinkFate judge(std::uint32_t from, std::uint32_t to, Tick at);

    /**
     * Is the directed link @p from -> @p to severed by a partition or
     * flap at tick @p at? Pure (no stream draws); exposed for tests.
     */
    bool linkCut(std::uint32_t from, std::uint32_t to, Tick at) const;

    /** Which scheduled cut (if any) eats the message right now. */
    bool partitionCuts(std::uint32_t from, std::uint32_t to,
                       Tick at) const;
    bool flapCuts(std::uint32_t from, std::uint32_t to, Tick at) const;

  private:
    bool inIsland(const PartitionSpec &spec, std::uint32_t rep) const;

    /**
     * The partial-partition coin for one (partition, pair): a pure
     * hash of (seed, partition index, unordered pair), so the severed
     * subgraph is stable for the window without consuming the stream.
     */
    bool pairSevered(std::size_t partition_idx, std::uint32_t a,
                     std::uint32_t b) const;

    NemesisConfig cfg;
    std::uint64_t seed = 0;
    std::uint32_t replicas = 0;
    std::uint32_t racks = 0;
    bool _active = false;
    Rng rng;
    NemesisStats _stats;
};

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_NET_NEMESIS_HH
