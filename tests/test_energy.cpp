/**
 * @file
 * Unit tests for the energy/TCO extension module.
 */

#include <gtest/gtest.h>

#include "energy/energy.h"
#include "hw/presets.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace {

struct Fixture
{
    TransformerConfig cfg = models::gpt175b();
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    TrainingOptions opts;
    TrainingReport rep;

    Fixture()
    {
        par.tensorParallel = 8;
        par.pipelineParallel = 8;
        rep = evaluateTraining(cfg, sys, par, 64, opts);
    }
};

TEST(Energy, ComponentsArePositiveAndSum)
{
    Fixture f;
    EnergyReport e =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    EXPECT_GT(e.compute, 0.0);
    EXPECT_GT(e.dram, 0.0);
    EXPECT_GT(e.network, 0.0);
    EXPECT_GT(e.idle, 0.0);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.compute + e.dram + e.network + e.idle);
}

TEST(Energy, AveragePowerIsWithinFleetTdp)
{
    Fixture f;
    EnergyReport e =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    double watts = e.averagePower(f.rep.timePerBatch);
    double fleet_tdp = 400.0 * 64.0;
    EXPECT_GT(watts, 0.1 * fleet_tdp);
    EXPECT_LT(watts, 1.5 * fleet_tdp);
}

TEST(Energy, ScaledModelTracksTechnology)
{
    EnergyModel base;
    EnergyModel better = base.scaled(2.0, 10e-12);
    EXPECT_DOUBLE_EQ(better.flopEnergy, base.flopEnergy / 2.0);
    EXPECT_DOUBLE_EQ(better.dramEnergyPerByte, 10e-12);
    EXPECT_THROW(base.scaled(0.0, 1e-12), ConfigError);
}

TEST(Energy, MoreEfficientLogicCutsComputeEnergy)
{
    Fixture f;
    EnergyModel eff = EnergyModel{}.scaled(2.0, 28e-12);
    EnergyReport a =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    EnergyReport b =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep, eff);
    EXPECT_NEAR(b.compute, a.compute / 2.0, a.compute * 1e-9);
    EXPECT_DOUBLE_EQ(b.dram, a.dram);
}

TEST(Energy, NetworkEnergyFollowsSequenceLength)
{
    // The same report priced for a longer sequence moves more TP
    // activation bytes; nothing else changes.
    Fixture f;
    TrainingOptions longer = f.opts;
    longer.seqLength = 2 * f.opts.seqLength;
    EnergyReport a =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    EnergyReport b =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, longer, f.rep);
    EXPECT_GT(b.network, a.network);
    EXPECT_EQ(b.compute, a.compute);
    EXPECT_EQ(b.dram, a.dram);
    EXPECT_EQ(b.idle, a.idle);
}

TEST(Tco, CapexAmortizesOverRunTime)
{
    Fixture f;
    EnergyReport e =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    TcoReport one = trainingCost(f.sys, f.rep.timePerBatch, 1000, e);
    TcoReport two = trainingCost(f.sys, f.rep.timePerBatch, 2000, e);
    EXPECT_NEAR(two.capexUsd, one.capexUsd * 2.0, one.capexUsd * 1e-9);
    EXPECT_NEAR(two.energyUsd, one.energyUsd * 2.0,
                one.energyUsd * 1e-9);
    EXPECT_DOUBLE_EQ(one.totalUsd, one.capexUsd + one.energyUsd);
}

TEST(Tco, Gpt3ScaleTrainingCostsMillions)
{
    // Order-of-magnitude check against the ~$10M full-training quote
    // the paper's introduction cites for GPT-3: ~300B tokens at batch
    // 64 x 2048 tokens -> ~2.3M batches on 64 GPUs.
    Fixture f;
    EnergyReport e =
        trainingEnergyPerBatch(f.cfg, f.sys, f.par, f.opts, f.rep);
    TcoReport tco =
        trainingCost(f.sys, f.rep.timePerBatch, 2'300'000, e);
    EXPECT_GT(tco.totalUsd, 3e5);
    EXPECT_LT(tco.totalUsd, 1e8);
}

TEST(Tco, RejectsBadInputs)
{
    Fixture f;
    EnergyReport e;
    EXPECT_THROW(trainingCost(f.sys, 0.0, 10, e), ConfigError);
    EXPECT_THROW(trainingCost(f.sys, 1.0, 0, e), ConfigError);
    EXPECT_THROW(e.averagePower(0.0), ConfigError);
}

} // namespace
} // namespace optimus
