/**
 * @file
 * The campaign counter tables (stats::CounterSet), the shared fold
 * that tags violation notes with their trial, and golden digests of
 * one small configuration per campaign family.
 *
 * Every table gets the same property tests: unique JSON keys, every
 * row reaches the digest, each fold kind folds as declared, and
 * merging partials in any order gives one answer. The golden digests
 * pin the row order: a reordered or dropped row changes them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "fault/campaign.hh"
#include "fault/cluster_campaign.hh"
#include "fault/compound.hh"
#include "fault/energy_campaign.hh"
#include "fault/ras_campaign.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "stats/counter_set.hh"

namespace
{

using namespace lightpc;

// --- one tag type per table ----------------------------------------

/** The only derived row in the tree counts a cluster trial's notes. */
template <typename R>
void
setDerived(R &, std::uint64_t)
{
    ADD_FAILURE() << "table has an unexpected derived row";
}

template <>
void
setDerived(cluster::ClusterResult &r, std::uint64_t v)
{
    r.violations.assign(v, "synthetic");
}

#define COUNTER_TABLE(Tag, Type, table)                                 \
    struct Tag                                                        \
    {                                                                 \
        using R = Type;                                               \
        static constexpr const char *name = #Tag;                     \
        static const stats::CounterSet<R> &set() { return table(); }  \
    }

COUNTER_TABLE(PowerCut, fault::CampaignResult, fault::campaignCounters);
COUNTER_TABLE(Ras, fault::RasCounts, fault::rasCounters);
COUNTER_TABLE(RasCell, fault::RasCounts, fault::rasCellCounters);
COUNTER_TABLE(Compound, fault::CompoundResult, fault::compoundCounters);
COUNTER_TABLE(Energy, fault::EnergyCellStats, fault::energyCounters);
COUNTER_TABLE(Cluster, cluster::ClusterResult, fault::clusterCounters);

#undef COUNTER_TABLE

/** A result whose every row holds a distinct value derived from @p base. */
template <typename R>
R
synthetic(const stats::CounterSet<R> &set, std::uint64_t base)
{
    R r;
    std::uint64_t v = base;
    for (const stats::Counter<R> &c : set.rows()) {
        if (c.count)
            c.countOf(r) = v;
        else if (c.real)
            c.realOf(r) = 0.5 + 0.125 * double(v);
        else
            setDerived(r, v % 5);
        v += 3;
    }
    return r;
}

/** Add one unit of its kind to row @p c of @p r. */
template <typename R>
void
bump(const stats::Counter<R> &c, R &r)
{
    if (c.count)
        ++c.countOf(r);
    else if (c.real)
        c.realOf(r) += 0.125;
    else
        setDerived(r, c.derived(r) + 1);
}

/**
 * True when no two rows share a member. merge() folds a result in
 * place, so it needs one row per member; a table that folds a member
 * two ways (the cluster table: mean and min availability) folds into
 * stats::Folded cells only.
 */
template <typename R>
bool
mergeable(const stats::CounterSet<R> &set)
{
    const R r{};
    std::set<const void *> slots;
    for (const stats::Counter<R> &c : set.rows()) {
        const void *slot = c.count ? static_cast<const void *>(c.count(r))
                           : c.real ? static_cast<const void *>(c.real(r))
                                    : nullptr;
        if (slot && !slots.insert(slot).second)
            return false;
    }
    return true;
}

template <typename R>
std::uint64_t
digestOf(const stats::CounterSet<R> &set, const R &r)
{
    sim::Fnv64 fnv;
    set.mix(fnv, r);
    return fnv.h;
}

/** Run @p check.operator()<Table>() for every table, traced by name. */
template <typename Check>
void
forEachTable(Check check)
{
    auto one = [&]<typename Table>() {
        SCOPED_TRACE(Table::name);
        check.template operator()<Table>();
    };
    one.template operator()<PowerCut>();
    one.template operator()<Ras>();
    one.template operator()<RasCell>();
    one.template operator()<Compound>();
    one.template operator()<Energy>();
    one.template operator()<Cluster>();
}

TEST(CounterTable, JsonKeysAreUnique)
{
    forEachTable([]<typename Table>() {
        const auto &set = Table::set();
        std::set<std::string> keys;
        for (const auto &c : set.rows()) {
            EXPECT_TRUE(keys.insert(c.key).second)
                << "duplicate " << c.key;
            EXPECT_EQ(set.indexOf(c.key),
                      static_cast<std::size_t>(&c - set.rows().data()));
            EXPECT_FALSE(c.key.empty());
            EXPECT_LE(std::count(c.key.begin(), c.key.end(), '.'), 1)
                << c.key << " nests deeper than one object";
        }
        EXPECT_THROW(set.indexOf("no_such_counter"), FatalError);
    });
}

TEST(CounterTable, EveryRowMovesTheDigest)
{
    forEachTable([]<typename Table>() {
        using R = typename Table::R;
        const auto &set = Table::set();
        const R base = synthetic(set, 1);
        const std::uint64_t digest = digestOf(set, base);
        for (const auto &c : set.rows()) {
            R changed = base;
            bump(c, changed);
            EXPECT_NE(digestOf(set, changed), digest) << c.key;

            // Folded cells reach the digest through the same rows.
            stats::Folded<R> a(set), b(set);
            a.add(base);
            b.add(changed);
            sim::Fnv64 fa, fb;
            a.mix(fa);
            b.mix(fb);
            EXPECT_NE(fa.h, fb.h) << c.key;
        }
    });
}

TEST(CounterTable, EachFoldKindFolds)
{
    forEachTable([]<typename Table>() {
        using R = typename Table::R;
        const auto &set = Table::set();
        const R x = synthetic(set, 40);
        const R y = synthetic(set, 7);

        // merge(): Sum and Mean add, Min and Max keep the extreme, all
        // starting from the default result; derived rows do not fold.
        const R zero{};
        R acc{};
        set.merge(acc, x);
        set.merge(acc, y);

        // Folded: the first trial seeds every row, finish() averages.
        stats::Folded<R> cell(set);
        cell.add(x);
        cell.add(y);
        cell.finish();
        EXPECT_EQ(cell.trials, 2u);

        for (std::size_t i = 0; i < set.size(); ++i) {
            const auto &c = set.rows()[i];
            const double a = c.read(x), b = c.read(y), z = c.read(zero);
            double merged = 0.0, folded = 0.0;
            switch (c.fold) {
            case stats::Fold::Sum:
            case stats::Fold::Mean:
                merged = z + a + b;
                folded =
                    c.fold == stats::Fold::Sum ? a + b : (a + b) / 2;
                break;
            case stats::Fold::Min:
                merged = std::min({z, a, b});
                folded = std::min(a, b);
                break;
            case stats::Fold::Max:
                merged = std::max({z, a, b});
                folded = std::max(a, b);
                break;
            }
            if (c.derived)
                merged = z;
            if (mergeable(set)) {
                EXPECT_DOUBLE_EQ(c.read(acc), merged) << c.key;
            }
            EXPECT_DOUBLE_EQ(cell.values[i], folded) << c.key;
            EXPECT_DOUBLE_EQ(cell[c.key], folded) << c.key;
        }
    });
}

TEST(CounterTable, MergeIsOrderIndependent)
{
    forEachTable([]<typename Table>() {
        using R = typename Table::R;
        const auto &set = Table::set();
        std::vector<R> parts;
        for (std::uint64_t k = 1; k <= 5; ++k)
            parts.push_back(synthetic(set, 11 * k));

        R forward{}, backward{};
        stats::Folded<R> cellForward(set), cellBackward(set);
        for (std::size_t k = 0; k < parts.size(); ++k) {
            set.merge(forward, parts[k]);
            set.merge(backward, parts[parts.size() - 1 - k]);
            cellForward.add(parts[k]);
            cellBackward.add(parts[parts.size() - 1 - k]);
        }
        if (mergeable(set)) {
            EXPECT_EQ(digestOf(set, forward), digestOf(set, backward));
        }
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (mergeable(set)) {
                EXPECT_EQ(set.format(i, forward), set.format(i, backward))
                    << set.rows()[i].key;
            }
            EXPECT_EQ(cellForward.values[i], cellBackward.values[i])
                << set.rows()[i].key;
        }
    });
}

// --- the shared fold -----------------------------------------------

TEST(CampaignFold, ViolationNotesNameTheirTrial)
{
    // Six one-cut partials; trial 3 broke the invariant.
    std::vector<fault::CampaignResult> trials(6);
    for (fault::CampaignResult &t : trials)
        t.cuts = 1;
    stats::flagViolation(trials[3], "SnG cut@5 commit durable=1");

    fault::CampaignResult acc;
    stats::foldTrials(fault::campaignCounters(), acc, trials,
                      [](std::uint64_t) { return "SnG ATX"; });
    EXPECT_EQ(acc.cuts, 6u);
    EXPECT_EQ(acc.violations, 1u);
    ASSERT_EQ(acc.violationNotes.size(), 1u);
    EXPECT_EQ(acc.violationNotes[0],
              "trial 3 [SnG ATX]: SnG cut@5 commit durable=1");
}

TEST(CampaignFold, KeepsOneCapOfNotesButCountsEveryViolation)
{
    std::vector<fault::CompoundResult> trials(100);
    for (fault::CompoundResult &t : trials) {
        stats::flagViolation(t, "first");
        stats::flagViolation(t, "second");
    }
    fault::CompoundResult acc;
    stats::foldTrials(fault::compoundCounters(), acc, trials,
                      [](std::uint64_t i) {
                          return i % 2 ? "odd" : "even";
                      });
    EXPECT_EQ(acc.violations, 200u);
    ASSERT_EQ(acc.violationNotes.size(), stats::maxViolationNotes);
    EXPECT_EQ(acc.violationNotes.front(), "trial 0 [even]: first");
    EXPECT_EQ(acc.violationNotes.back(), "trial 31 [odd]: second");
}

// --- golden digests ------------------------------------------------
//
// One small configuration per family. The values were captured from
// the hand-written merge/digest code these tables replaced; they move
// only if a row is added, dropped or reordered, or the simulation
// itself changes.

TEST(CampaignGoldenDigest, PowerCutModes)
{
    fault::CampaignConfig cfg;
    cfg.cuts = 8;
    cfg.seed = 7;
    EXPECT_EQ(fault::runSngCampaign(cfg).digest, 0xce38e1607d09ebefULL);
    EXPECT_EQ(fault::runSysPcCampaign(cfg).digest, 0x0815dc60a38113fbULL);
    EXPECT_EQ(fault::runSCheckPcCampaign(cfg).digest,
              0xad38baf2221bed4aULL);
    EXPECT_EQ(fault::runACheckPcCampaign(cfg).digest,
              0x02c9f20bbd080211ULL);
    EXPECT_EQ(fault::runOpLogCampaign(cfg).digest, 0x8d7ad5bd3b7ca389ULL);
}

TEST(CampaignGoldenDigest, Ras)
{
    fault::RasCampaignConfig cfg;
    cfg.bers = {0.0, 1e-3};
    cfg.wearLevels = {0.0};
    cfg.seedsPerCell = 2;
    cfg.opsPerTrial = 300;
    cfg.seed = 3;
    EXPECT_EQ(fault::runRasCampaign(cfg).digest, 0xbe4063f27bc15d14ULL);
}

TEST(CampaignGoldenDigest, Compound)
{
    fault::CompoundConfig cfg;
    cfg.trials = 20;
    cfg.seed = 2026;
    EXPECT_EQ(fault::runCompoundCampaign(cfg).digest,
              0xd859256a9b9f4554ULL);
}

TEST(CampaignGoldenDigest, Energy)
{
    fault::EnergyCampaignConfig cfg;
    cfg.sizingScales = {0.05, 0.30};
    cfg.modes = {net::PersistMode::SnG, net::PersistMode::SysPc};
    cfg.intensities = {1, 2, 3};
    cfg.seedsPerCell = 2;
    cfg.seed = 42;
    cfg.agingSpreadCycles = 300.0;
    EXPECT_EQ(fault::runEnergyCampaign(cfg).digest, 0x146bdd8d570de0d5ULL);
}

} // namespace
