#include "fault/net_nemesis.hh"

#include <algorithm>

#include "fault/compound.hh"
#include "sim/logging.hh"

namespace lightpc::fault
{

const char *
partitionModeName(PartitionMode mode)
{
    switch (mode) {
      case PartitionMode::Symmetric: return "symmetric";
      case PartitionMode::Asymmetric: return "asymmetric";
      case PartitionMode::Partial: return "partial";
    }
    return "?";
}

void
validateNemesisConfig(const NemesisConfig &config,
                      std::uint32_t replicas, std::uint32_t racks)
{
    if (config.dropProb < 0.0 || config.dropProb > 1.0)
        fatal("NemesisConfig: dropProb (", config.dropProb,
              ") must be in [0, 1]");
    if (config.dupProb < 0.0 || config.dupProb > 1.0)
        fatal("NemesisConfig: dupProb (", config.dupProb,
              ") must be in [0, 1]");
    if (config.partialCutProb < 0.0 || config.partialCutProb > 1.0)
        fatal("NemesisConfig: partialCutProb (", config.partialCutProb,
              ") must be in [0, 1]");

    for (const LinkFlap &f : config.flaps) {
        if (f.a == f.b)
            fatal("NemesisConfig: flap endpoints must differ (replica ",
                  f.a, " flapping against itself)");
        if (f.a >= replicas || f.b >= replicas)
            fatal("NemesisConfig: flap endpoints (", f.a, ", ", f.b,
                  ") must be < replicas (", replicas, ")");
        if (f.end <= f.start)
            fatal("NemesisConfig: flap window [", f.start, ", ", f.end,
                  ") is empty");
    }
    for (std::size_t i = 0; i < config.flaps.size(); ++i) {
        for (std::size_t j = i + 1; j < config.flaps.size(); ++j) {
            const LinkFlap &x = config.flaps[i];
            const LinkFlap &y = config.flaps[j];
            const bool same_pair =
                (x.a == y.a && x.b == y.b) || (x.a == y.b && x.b == y.a);
            if (same_pair && x.start < y.end && y.start < x.end)
                fatal("NemesisConfig: flap windows on pair (", x.a, ", ",
                      x.b, ") overlap ([", x.start, ", ", x.end,
                      ") vs [", y.start, ", ", y.end, "))");
        }
    }

    for (const PartitionSpec &p : config.partitions) {
        if (p.end <= p.start)
            fatal("NemesisConfig: partition window [", p.start, ", ",
                  p.end, ") is empty");
        if (p.firstRack >= racks)
            fatal("NemesisConfig: partition firstRack (", p.firstRack,
                  ") must be < racks (", racks, ")");
        if (racks < 2)
            fatal("NemesisConfig: a partition needs a rack outside its "
                  "island (racks = ", racks, ")");
    }
    for (std::size_t i = 0; i < config.partitions.size(); ++i) {
        for (std::size_t j = i + 1; j < config.partitions.size(); ++j) {
            const PartitionSpec &x = config.partitions[i];
            const PartitionSpec &y = config.partitions[j];
            if (x.start < y.end && y.start < x.end)
                fatal("NemesisConfig: partition windows overlap ([",
                      x.start, ", ", x.end, ") vs [", y.start, ", ",
                      y.end, ")); schedule one partition at a time");
        }
    }
}

NetNemesis::NetNemesis(const NemesisConfig &config, std::uint64_t seed,
                       std::uint32_t replicas, std::uint32_t racks)
    : cfg(config), seed(seed), replicas(replicas), racks(racks),
      _active(config.active()), rng(seed)
{
}

bool
NetNemesis::inIsland(const PartitionSpec &spec, std::uint32_t rep) const
{
    const std::uint32_t rack = CutStorm::rackOf(rep, replicas, racks);
    return rack == spec.firstRack;
}

bool
NetNemesis::pairSevered(std::size_t partition_idx, std::uint32_t a,
                        std::uint32_t b) const
{
    const std::uint32_t lo = std::min(a, b);
    const std::uint32_t hi = std::max(a, b);
    const std::uint64_t pair =
        (std::uint64_t(partition_idx) << 32)
        | (std::uint64_t(lo) << 16) | std::uint64_t(hi);
    // One throwaway generator per coin keeps the verdict a pure
    // function of (seed, partition, pair) — independent of how much
    // traffic the window has seen.
    Rng coin(Rng::streamSeed(seed ^ 0x70617274ULL, pair));
    return coin.uniform() < cfg.partialCutProb;
}

bool
NetNemesis::partitionCuts(std::uint32_t from, std::uint32_t to,
                          Tick at) const
{
    for (std::size_t i = 0; i < cfg.partitions.size(); ++i) {
        const PartitionSpec &p = cfg.partitions[i];
        if (at < p.start || at >= p.end)
            continue;
        const bool from_in = inIsland(p, from);
        const bool to_in = inIsland(p, to);
        if (from_in == to_in)
            continue;  // same side; partitions never cut intra-side
        switch (p.mode) {
          case PartitionMode::Symmetric:
            return true;
          case PartitionMode::Asymmetric:
            // The island's sends die; it still hears the rest.
            if (from_in)
                return true;
            break;
          case PartitionMode::Partial:
            if (pairSevered(i, from, to))
                return true;
            break;
        }
    }
    return false;
}

bool
NetNemesis::flapCuts(std::uint32_t from, std::uint32_t to, Tick at) const
{
    for (const LinkFlap &f : cfg.flaps) {
        const bool pair =
            (f.a == from && f.b == to) || (f.a == to && f.b == from);
        if (pair && at >= f.start && at < f.end)
            return true;
    }
    return false;
}

bool
NetNemesis::linkCut(std::uint32_t from, std::uint32_t to, Tick at) const
{
    return partitionCuts(from, to, at) || flapCuts(from, to, at);
}

LinkFate
NetNemesis::judge(std::uint32_t from, std::uint32_t to, Tick at)
{
    LinkFate fate;

    // Scheduled cuts are pure functions of (config, time): they draw
    // nothing, so a flap or partition window leaves every other
    // message's Bernoulli/jitter draws exactly where they were.
    if (partitionCuts(from, to, at)) {
        fate.cutByPartition = true;
        ++_stats.partitionCuts;
        return fate;
    }
    if (flapCuts(from, to, at)) {
        fate.cutByFlap = true;
        ++_stats.flapCuts;
        return fate;
    }

    // Stream draws in fixed per-message order, each gated on its
    // probability being enabled at all, so an inert knob consumes
    // nothing from the stream.
    if (cfg.dropProb > 0.0 && rng.chance(cfg.dropProb)) {
        fate.dropped = true;
        ++_stats.dropped;
    }
    if (cfg.dupProb > 0.0 && rng.chance(cfg.dupProb)) {
        fate.duplicated = true;
        ++_stats.duplicated;
    }
    if (cfg.jitterMax > 0) {
        fate.jitter = rng.below(cfg.jitterMax);
        if (fate.duplicated)
            fate.dupJitter = rng.below(cfg.jitterMax);
    }
    return fate;
}

} // namespace lightpc::fault
