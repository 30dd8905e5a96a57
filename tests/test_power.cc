/**
 * @file
 * Tests for the power model and the PSU hold-up model.
 */

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "power/psu.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::power;

TEST(PowerModel, StaticPowerScalesWithComponents)
{
    PowerModel model;
    ActivitySample bare;
    bare.duration = tickSec;
    const double floor = model.staticWattsOf(bare);

    ActivitySample with_dram = bare;
    with_dram.dramDimms = 6;
    EXPECT_NEAR(model.staticWattsOf(with_dram) - floor,
                6 * (model.constants().dram.backgroundWatts
                     + model.constants().dram.refreshWatts),
                1e-9);

    ActivitySample with_pram = bare;
    with_pram.pramDimms = 6;
    // The PRAM background burden is far below DRAM's (no refresh).
    EXPECT_LT(model.staticWattsOf(with_pram) - floor,
              (model.staticWattsOf(with_dram) - floor) / 5.0);
}

TEST(PowerModel, EnergyIntegratesStaticAndDynamic)
{
    PowerModel model;
    ActivitySample sample;
    sample.duration = tickSec;
    sample.pramDimms = 1;
    sample.pramReads = 1'000'000;
    const double static_only_joules =
        model.staticWattsOf(sample) * 1.0;
    const double expected_dynamic =
        model.constants().pram.readNanojoules * 1e-9 * 1e6;
    EXPECT_NEAR(model.energyOf(sample),
                static_only_joules + expected_dynamic, 1e-6);
}

TEST(PowerModel, ActiveCoresCostMoreThanIdle)
{
    PowerModel model;
    ActivitySample busy, idle;
    busy.duration = idle.duration = tickSec;
    busy.coresActive = 8;
    busy.coreUtilization = 1.0;
    idle.coresIdle = 8;
    EXPECT_GT(model.powerOf(busy), model.powerOf(idle));
}

TEST(PowerModel, UtilizationInterpolatesCorePower)
{
    PowerModel model;
    ActivitySample half;
    half.duration = tickSec;
    half.coresActive = 1;
    half.coreUtilization = 0.5;
    const auto &core = model.constants().core;
    ActivitySample none = half;
    none.coresActive = 0;
    EXPECT_NEAR(model.powerOf(half) - model.powerOf(none),
                core.idleWatts
                    + 0.5 * (core.activeWatts - core.idleWatts),
                1e-9);
}

TEST(PowerModel, PlatformTotalsMatchPaperCalibration)
{
    // LegacyPC ~18.9 W, LightPC ~5.3 W with 8 busy cores (Fig. 18).
    PowerModel model;
    ActivitySample legacy;
    legacy.duration = tickSec;
    legacy.coresActive = 8;
    legacy.coreUtilization = 0.95;
    legacy.dramDimms = 6;
    legacy.dramAccesses = 60'000'000;
    EXPECT_NEAR(model.powerOf(legacy), 18.9, 2.0);

    ActivitySample light;
    light.duration = tickSec;
    light.coresActive = 8;
    light.coreUtilization = 0.95;
    light.pramDimms = 6;
    light.pramReads = 50'000'000;
    light.pramWrites = 5'000'000;
    EXPECT_NEAR(model.powerOf(light), 5.3, 1.0);
}

TEST(EnergyMeter, Accumulates)
{
    EnergyMeter meter;
    meter.addStatic(2.0, tickSec);
    meter.addDynamic(10.0, 1'000'000);  // 10 nJ x 1M = 10 mJ
    EXPECT_NEAR(meter.joules(), 2.01, 1e-9);
    EXPECT_NEAR(meter.averageWatts(2 * tickSec), 1.005, 1e-9);
    meter.reset();
    EXPECT_DOUBLE_EQ(meter.joules(), 0.0);
}

TEST(Psu, MeasuredHoldupsMatchPaper)
{
    // Fig. 8a: ATX 22 ms and server 55 ms at full utilization.
    const PsuModel atx = PsuModel::atx();
    const PsuModel server = PsuModel::dellServer();
    EXPECT_NEAR(ticksToMs(atx.holdupTime(18.9)), 22.0, 0.5);
    EXPECT_NEAR(ticksToMs(server.holdupTime(18.9)), 55.0, 1.0);
    EXPECT_EQ(atx.spec().specHoldup, 16 * tickMs);
}

TEST(Psu, IdleLoadExtendsHoldup)
{
    const PsuModel atx = PsuModel::atx();
    EXPECT_GT(atx.holdupTime(12.0), atx.holdupTime(18.9));
}

TEST(Psu, ZeroLoadNeverRunsOut)
{
    const PsuModel atx = PsuModel::atx();
    EXPECT_EQ(atx.holdupTime(0.0), maxTick);
}

} // namespace
