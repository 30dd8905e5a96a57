#include "fault/cluster_campaign.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "fault/compound.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

namespace
{

using Result = cluster::ClusterResult;

/**
 * Racks every campaign fleet spans. With 3 replicas, rack 0 holds the
 * majority {0, 1}, so partitioning it off threatens the quorum.
 */
constexpr std::uint32_t campaignRacks = 2;

constexpr ClusterCounter
sum(const char *name, std::uint64_t Result::*member)
{
    return {name, Fold::Sum, Unit::Count, member};
}

constexpr ClusterCounter
ratio(const char *name, Fold fold, double Result::*member)
{
    return {name, fold, Unit::Ratio, nullptr, member};
}

constexpr ClusterCounter counterTable[] = {
    sum("cuts", &Result::cutsInjected),
    ratio("write_avail_mean", Fold::Mean, &Result::writeAvailability),
    ratio("write_avail_min", Fold::Min, &Result::writeAvailability),
    ratio("read_avail_mean", Fold::Mean, &Result::readAvailability),
    ratio("read_avail_min", Fold::Min, &Result::readAvailability),
    {"worst_write_gap_ms", Fold::Max, Unit::Ms, &Result::worstWriteGap},
    sum("read_only_spans", &Result::readOnlySpans),
    sum("completed", &Result::completed),
    sum("failed", &Result::failed),
    sum("acked_puts", &Result::ackedPuts),
    sum("redirects", &Result::redirects),
    sum("fast_redirects", &Result::fastRedirects),
    sum("redirect_fallbacks", &Result::redirectFallbacks),
    sum("msgs_dropped", &Result::msgsDropped),
    sum("msgs_duplicated", &Result::msgsDuplicated),
    sum("msgs_reordered", &Result::msgsReordered),
    sum("partition_cuts", &Result::partitionCuts),
    sum("flap_cuts", &Result::flapCuts),
    sum("elections", &Result::elections),
    sum("leader_changes", &Result::leaderChanges),
    sum("step_downs", &Result::stepDowns),
    sum("pre_vote_rounds", &Result::preVoteRounds),
    sum("elections_suppressed", &Result::electionsSuppressed),
    sum("retransmits", &Result::retransmits),
    sum("sync_retries", &Result::syncRetries),
    sum("duplicate_ack_audits", &Result::duplicateAckAudits),
    sum("sync_deltas", &Result::syncDeltas),
    sum("sync_fulls", &Result::syncFulls),
    sum("sync_bytes", &Result::syncBytes),
    sum("resumes", &Result::resumes),
    sum("cold_boots", &Result::coldBoots),
    sum("degraded_cold_boots", &Result::degradedColdBoots),
    sum("audited_writes", &Result::auditedWrites),
    sum("audited_reads", &Result::auditedReads),
    sum("stale_reads", &Result::staleReads),
    sum("not_found_reads", &Result::notFoundReads),
    // Invariants: must stay zero across the whole campaign.
    sum("lost_acked_puts", &Result::lostAckedPuts),
    sum("split_brain_epochs", &Result::splitBrainEpochs),
    sum("divergent_commits", &Result::divergentCommits),
    sum("lost_updates", &Result::lostUpdates),
    sum("order_inversions", &Result::orderInversions),
    sum("phantom_reads", &Result::phantomReads),
    sum("value_divergences", &Result::valueDivergences),
    {"violations", Fold::Sum, Unit::Count},
};

/** A trial index decoded into its grid position. */
struct GridPoint
{
    std::size_t replicas = 0;   ///< index into replicaCounts
    std::size_t intensity = 0;  ///< index into intensities
    std::size_t mode = 0;       ///< index into modes
    std::uint64_t seed = 0;     ///< seed index within the cell
};

/** Decode replicas-major, then intensity, then mode, then seed. */
GridPoint
locate(const ClusterCampaignConfig &config, std::uint64_t index)
{
    GridPoint at;
    at.seed = index % config.seedsPerCell;
    std::uint64_t cell = index / config.seedsPerCell;
    at.mode = cell % config.modes.size();
    cell /= config.modes.size();
    at.intensity = cell % config.intensities.size();
    at.replicas = cell / config.intensities.size();
    return at;
}

void
validate(const ClusterCampaignConfig &config)
{
    if (config.seedsPerCell == 0)
        fatal("cluster campaign: seedsPerCell must be nonzero");
    if (config.replicaCounts.empty())
        fatal("cluster campaign: no replica counts to sweep");
    if (config.intensities.empty())
        fatal("cluster campaign: no intensities to sweep");
    if (config.modes.empty())
        fatal("cluster campaign: no persistence modes to sweep");
    for (const std::uint32_t intensity : config.intensities)
        if (intensity < 1 || intensity > 3)
            fatal("cluster campaign: intensity ", intensity,
                  " is not on the 1..3 ",
                  config.ladder == Ladder::Storm ? "storm" : "nemesis",
                  " ladder");
    // flapOnPair picks a second, distinct pair modulo (pairs - 1), and
    // a partition against fewer than 3 replicas has no minority
    // island worth studying.
    if (config.ladder == Ladder::Nemesis)
        for (const std::uint32_t replicas : config.replicaCounts)
            if (replicas < 3)
                fatal("cluster campaign: the nemesis ladder needs >= 3"
                      " replicas, not ", replicas);
    // The stream-column packing gives seedIdx 32 bits, intIdx 8 and
    // repIdx the rest; overflow would silently alias storm/arrival
    // streams across cells and void the paired comparison.
    if (config.seedsPerCell > (std::uint64_t(1) << 32))
        fatal("cluster campaign: seedsPerCell ", config.seedsPerCell,
              " overflows the 32-bit seed field of the stream "
              "column packing");
    if (config.intensities.size() > 256)
        fatal("cluster campaign: ", config.intensities.size(),
              " intensities overflow the 8-bit intensity field of "
              "the stream column packing");
    if (config.replicaCounts.size() > (std::size_t(1) << 24))
        fatal("cluster campaign: ", config.replicaCounts.size(),
              " replica counts overflow the stream column packing");
    if (config.runFor == 0)
        fatal("cluster campaign: runFor must be nonzero");
    if (config.clients == 0)
        fatal("cluster campaign: zero clients");
    if (config.arrivalsPerSec <= 0.0)
        fatal("cluster campaign: arrival rate must be positive");
    if (config.agingSpread < 0.0 || config.agingSpread > 1.0)
        fatal("cluster campaign: agingSpread (", config.agingSpread,
              ") must be within [0, 1]");
}

/** Storm count and rack span of one storm-ladder rung. */
void
climbStormLadder(cluster::ClusterConfig &cc, std::uint32_t intensity)
{
    cc.storms = intensity == 1 ? 1 : 2;
    cc.stormRackSpan = intensity == 3 ? cc.racks : 1;
}

/** The partition mode seed index @p seed_idx exercises. */
PartitionMode
cycleMode(std::uint64_t seed_idx)
{
    switch (seed_idx % 3) {
    case 0: return PartitionMode::Symmetric;
    case 1: return PartitionMode::Asymmetric;
    default: return PartitionMode::Partial;
    }
}

/**
 * A flap on one replica pair, the pair picked by @p pick of the
 * replicas-choose-2 unordered pairs in (a, b) lexicographic order.
 */
LinkFlap
flapOnPair(std::uint64_t pick, std::uint32_t replicas, Tick start,
           Tick end)
{
    const std::uint64_t pairs =
        std::uint64_t(replicas) * (replicas - 1) / 2;
    std::uint64_t k = pick % pairs;
    LinkFlap flap;
    for (std::uint32_t a = 0; a < replicas; ++a) {
        const std::uint64_t fanout = replicas - 1 - a;
        if (k < fanout) {
            flap.a = a;
            flap.b = a + 1 + static_cast<std::uint32_t>(k);
            break;
        }
        k -= fanout;
    }
    flap.start = start;
    flap.end = end;
    return flap;
}

/** Storms and the NemesisConfig of one nemesis-ladder rung. */
void
climbNemesisLadder(cluster::ClusterConfig &cc, std::uint32_t intensity,
                   std::uint64_t seed_idx)
{
    // The nemesis schedule draws from its own stream off the trial
    // seed — NOT from the storm or arrival streams — in a fixed
    // order, so every draw below is a pure function of (config,
    // index) and independent of the mode under test.
    Rng sched(Rng::streamSeed(cc.seed, 0x6e656d73ULL));
    NemesisConfig &nem = cc.nemesis;
    nem.fifoLinks = false;  // jitter is allowed to reorder
    cc.storms = intensity == 3 ? 2 : 1;
    cc.stormRackSpan = 1;

    if (intensity < 3) {
        nem.dropProb = 0.01;
        nem.dupProb = 0.01;
        nem.jitterMax = 30 * tickUs;
    }
    if (intensity == 2) {
        // One scheduled partition (mode cycling by seed index) and
        // one link flap over the lossy floor.
        nem.partialCutProb = 0.6;
        PartitionSpec part;
        part.mode = cycleMode(seed_idx);
        part.firstRack = static_cast<std::uint32_t>(
            sched.below(cc.racks));
        part.rackSpan = 1;
        part.start = sched.between(cc.runFor / 4, cc.runFor / 2);
        part.end = part.start
            + sched.between(150 * tickMs, 250 * tickMs);
        nem.partitions.push_back(part);
        nem.flaps.push_back(flapOnPair(
            sched.next(), cc.replicas,
            sched.between((3 * cc.runFor) / 5, (4 * cc.runFor) / 5),
            0));
        nem.flaps.back().end =
            nem.flaps.back().start
            + sched.between(60 * tickMs, 120 * tickMs);
    }
    if (intensity != 3)
        return;

    // Compound: heavy loss, and the partitions are scheduled to
    // overlap the storm windows — the struck rack is severed while
    // its replicas are power-cycled, so a deposed leader comes back
    // into a partition, not a healthy fleet.
    nem.dropProb = 0.05;
    nem.dupProb = 0.03;
    nem.jitterMax = 100 * tickUs;
    nem.partialCutProb = 0.6;

    // Replay the exact storm schedule the cluster plane will draw
    // (same stream tag, same arguments) to learn each storm's window
    // and struck rack.
    CutStorm gen(Rng::streamSeed(cc.seed, 0xc157e5ULL));
    const auto schedule = gen.correlated(
        cc.runFor / 5, cc.runFor, cc.storms, cc.replicas, cc.racks,
        cc.stormRackSpan, cc.stormWindow);
    Tick prevEnd = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const CorrelatedStorm &storm = schedule[i];
        PartitionSpec part;
        part.mode = cycleMode(seed_idx + i);
        part.firstRack = storm.racks.empty()
            ? 0
            : std::min(storm.racks.front(), cc.racks - 1);
        part.rackSpan = 1;
        const Tick lead = 20 * tickMs;
        part.start = storm.startAt > lead ? storm.startAt - lead
                                          : Tick(1);
        // Partition windows must not overlap each other (the
        // validator rejects concurrent partitions); clamp to the
        // previous window's end and drop degenerates.
        part.start = std::max(part.start, prevEnd + 1);
        part.end = part.start + cc.stormWindow + 120 * tickMs;
        if (part.end <= part.start)
            continue;
        prevEnd = part.end;
        nem.partitions.push_back(part);
    }

    // Two flaps on distinct pairs (distinct pairs may overlap in
    // time; the validator only rejects same-pair overlap).
    const std::uint64_t pairs =
        std::uint64_t(cc.replicas) * (cc.replicas - 1) / 2;
    const std::uint64_t first = sched.next();
    LinkFlap f1 = flapOnPair(
        first, cc.replicas,
        sched.between(cc.runFor / 3, cc.runFor / 2), 0);
    f1.end = f1.start + sched.between(60 * tickMs, 120 * tickMs);
    LinkFlap f2 = flapOnPair(
        first + 1 + sched.next() % (pairs - 1), cc.replicas,
        sched.between((3 * cc.runFor) / 5, (4 * cc.runFor) / 5), 0);
    f2.end = f2.start + sched.between(60 * tickMs, 120 * tickMs);
    nem.flaps.push_back(f1);
    nem.flaps.push_back(f2);
}

} // namespace

double
ClusterCounter::read(const cluster::ClusterResult &r) const
{
    if (ratio)
        return r.*ratio;
    if (!count)
        return static_cast<double>(r.violations.size());
    const double value = static_cast<double>(r.*count);
    return unit == Unit::Ms ? value / static_cast<double>(tickMs)
                            : value;
}

std::span<const ClusterCounter>
clusterCounters()
{
    return counterTable;
}

const ClusterCounter &
clusterCounter(std::string_view name)
{
    for (const ClusterCounter &c : counterTable)
        if (name == c.name)
            return c;
    fatal("cluster campaign: no counter named '", name, "'");
}

void
ClusterCell::add(const cluster::ClusterResult &r)
{
    const bool first = trials++ == 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const ClusterCounter &c = counterTable[i];
        const double v = c.read(r);
        double &acc = values[i];
        switch (c.fold) {
        case Fold::Sum:
        case Fold::Mean: acc += v; break;
        case Fold::Min: acc = first ? v : std::min(acc, v); break;
        case Fold::Max: acc = first ? v : std::max(acc, v); break;
        }
    }
}

void
ClusterCell::finish()
{
    for (std::size_t i = 0; i < values.size(); ++i)
        if (counterTable[i].fold == Fold::Mean && trials > 0)
            values[i] /= static_cast<double>(trials);
}

double
ClusterCell::operator[](std::string_view name) const
{
    return values[&clusterCounter(name) - counterTable];
}

std::uint64_t
clusterCampaignTrials(const ClusterCampaignConfig &config)
{
    return std::uint64_t(config.replicaCounts.size())
           * config.intensities.size() * config.modes.size()
           * config.seedsPerCell;
}

cluster::ClusterConfig
clusterTrialConfig(const ClusterCampaignConfig &config,
                   std::uint64_t index)
{
    validate(config);
    if (index >= clusterCampaignTrials(config))
        fatal("cluster campaign: trial index ", index, " past the ",
              clusterCampaignTrials(config), "-trial grid");
    const GridPoint at = locate(config, index);

    cluster::ClusterConfig cc;
    cc.mode = config.modes[at.mode];
    cc.replicas = config.replicaCounts[at.replicas];
    cc.racks = campaignRacks;
    cc.agingSpread = config.agingSpread;

    cc.runFor = config.runFor;
    cc.drainGrace = config.drainGrace;
    cc.fleet.clients = config.clients;
    cc.fleet.arrivalsPerSec = config.arrivalsPerSec;

    // Small kernel population: a trial holds up to five machines.
    cc.userProcesses = 6;
    cc.kernelThreads = 4;
    cc.deviceCount = 12;

    // One stream per grid position, mode EXCLUDED: the same seed index
    // replays identical schedules against every mode in the cell's
    // column, so the comparison is paired. The column packs (repIdx,
    // intIdx, seedIdx) into disjoint wide fields — validate() bounds
    // each so they cannot collide — and each ladder has its own tag.
    const std::uint64_t column =
        ((std::uint64_t(at.replicas) * 256 + at.intensity) << 32)
        | at.seed;
    const std::uint64_t tag =
        config.ladder == Ladder::Storm ? 0x636c7573ULL : 0x706172ULL;
    cc.seed = Rng::streamSeed(config.seed, tag + column);

    const std::uint32_t intensity = config.intensities[at.intensity];
    if (config.ladder == Ladder::Storm)
        climbStormLadder(cc, intensity);
    else
        climbNemesisLadder(cc, intensity, at.seed);
    return cc;
}

ClusterCampaignResult
foldClusterCampaign(const ClusterCampaignConfig &config,
                    const std::vector<cluster::ClusterResult> &runs)
{
    validate(config);
    if (runs.size() != clusterCampaignTrials(config))
        fatal("cluster campaign: ", runs.size(), " runs for a ",
              clusterCampaignTrials(config), "-trial grid");

    // Trial i belongs to cell i / seedsPerCell; cells come out
    // replicas-major, in canonical index order.
    ClusterCampaignResult result;
    result.cells.resize(runs.size() / config.seedsPerCell);
    for (std::uint64_t i = 0; i < runs.size(); ++i) {
        const cluster::ClusterResult &r = runs[i];
        ClusterCell &cell = result.cells[i / config.seedsPerCell];
        if (cell.trials == 0) {
            const GridPoint at = locate(config, i);
            cell.replicas = config.replicaCounts[at.replicas];
            cell.intensity = config.intensities[at.intensity];
            cell.mode = config.modes[at.mode];
            cell.modeName = net::persistModeName(cell.mode);
        }
        cell.add(r);
        result.total.add(r);
        for (const std::string &note : r.violations) {
            std::ostringstream tagged;
            tagged << "trial " << i << " [" << cell.modeName << " x"
                   << cell.replicas << " intensity " << cell.intensity
                   << "]: " << note;
            if (result.violationNotes.size() < 64)
                result.violationNotes.push_back(tagged.str());
        }
    }

    // Determinism anchor: the per-trial run digests, then every cell
    // counter in table order.
    sim::Fnv64 fnv;
    fnv.mix(runs.size());
    for (const cluster::ClusterResult &r : runs)
        fnv.mix(r.digest);
    for (ClusterCell &cell : result.cells) {
        cell.finish();
        fnv.mix(cell.replicas);
        fnv.mix(cell.intensity);
        fnv.mix(static_cast<std::uint64_t>(cell.mode));
        fnv.mix(cell.trials);
        for (const double v : cell.values)
            fnv.mix(std::bit_cast<std::uint64_t>(v));
    }
    result.total.finish();
    result.digest = fnv.h;
    return result;
}

ClusterCampaignResult
runClusterCampaign(const ClusterCampaignConfig &config)
{
    validate(config);
    sim::ParallelExecutor pool(config.threads);
    const std::vector<cluster::ClusterResult> runs =
        pool.map<cluster::ClusterResult>(
            clusterCampaignTrials(config),
            [&config](std::uint64_t index) {
                return cluster::runCluster(
                    clusterTrialConfig(config, index));
            });
    return foldClusterCampaign(config, runs);
}

} // namespace lightpc::fault
