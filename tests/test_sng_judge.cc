/**
 * @file
 * The shared SnG cut judge (fault/persist_probe.hh): one test per
 * branch of the allowed-outcome rule, each on a real SnG rig whose
 * durable Stop is then broken in the one way that branch must catch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/persist_probe.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using fault::SngCut;
using fault::SngRig;

/** A judge's violation sink. */
struct Verdicts
{
    std::uint64_t violations = 0;
    std::vector<std::string> notes;
};

/** A cut-free Stop: the EP-cut commit is durable and judged clean. */
SngCut
durableStop(SngRig &rig, Rng &rng, Verdicts &v)
{
    const SngCut c = fault::cutSng(rig, 0, maxTick, rng, v.violations,
                                   v.notes, "test");
    EXPECT_TRUE(c.durable);
    EXPECT_TRUE(rig.sng.hasCommit());
    EXPECT_EQ(v.violations, 0u);
    return c;
}

TEST(SngJudge, InvalidatedCommitFailsTheCommitCheck)
{
    SngRig rig;
    Rng rng(1);
    Verdicts v;
    const SngCut c = durableStop(rig, rng, v);

    rig.sng.invalidateCommit(c.stop.offlineDone + tickMs);
    fault::judgeSngCommit(rig, c, v.violations, v.notes, "test");
    EXPECT_EQ(v.violations, 1u);
    ASSERT_EQ(v.notes.size(), 1u);
    EXPECT_NE(v.notes[0].find("commit durable=0 expected=1"),
              std::string::npos);
}

TEST(SngJudge, ColdBootFromADurableStopFailsTheRecoveryCheck)
{
    SngRig rig;
    Rng rng(2);
    Verdicts v;
    const SngCut c = durableStop(rig, rng, v);

    rig.sng.invalidateCommit(c.stop.offlineDone + tickMs);
    const pecos::GoReport go = rig.sng.resume(c.stop.offlineDone + tickSec);
    ASSERT_TRUE(go.coldBoot);
    fault::judgeSngRecovery(rig, c, go.coldBoot, false, v.violations,
                            v.notes, "test");
    EXPECT_EQ(v.violations, 1u);
    ASSERT_EQ(v.notes.size(), 1u);
    EXPECT_NE(v.notes[0].find("coldBoot=1 but commit durable=1"),
              std::string::npos);

    // A supervisor that gave up on the image (a degraded cold boot)
    // is the one allowed cold path from a durable commit.
    fault::judgeSngRecovery(rig, c, go.coldBoot, true, v.violations,
                            v.notes, "test");
    EXPECT_EQ(v.violations, 1u);
}

TEST(SngJudge, WarmResumeWithAlteredRegistersFailsTheRegisterCheck)
{
    SngRig rig;
    Rng rng(3);
    Verdicts v;
    const SngCut c = durableStop(rig, rng, v);

    const pecos::GoReport go = rig.sng.resume(c.stop.offlineDone + tickSec);
    ASSERT_FALSE(go.coldBoot);
    fault::judgeSngRecovery(rig, c, go.coldBoot, false, v.violations,
                            v.notes, "test");
    EXPECT_EQ(v.violations, 0u);

    rig.kern.scramble(rng);
    fault::judgeSngRecovery(rig, c, go.coldBoot, false, v.violations,
                            v.notes, "test");
    EXPECT_EQ(v.violations, 1u);
    ASSERT_EQ(v.notes.size(), 1u);
    EXPECT_NE(v.notes[0].find("corrupt register state"),
              std::string::npos);
}

} // namespace
