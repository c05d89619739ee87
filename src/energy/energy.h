/**
 * @file
 * Energy and cost (TCO) extension.
 *
 * The paper lists "integrating a cost and an energy model ... and
 * performing complete performance per TCO analysis" as future work
 * (Sec. 7); this module implements a first-order version: per-batch
 * training energy from FLOPs, DRAM traffic and network traffic, plus
 * an amortized total-cost-of-operation estimate.
 */

#ifndef OPTIMUS_ENERGY_ENERGY_H
#define OPTIMUS_ENERGY_ENERGY_H

#include "hw/system.h"
#include "training/trainer.h"

namespace optimus {

/** Per-operation energy coefficients. */
struct EnergyModel
{
    double flopEnergy = 0.8e-12;        ///< J/FLOP (fp16, ~7 nm)
    double dramEnergyPerByte = 28e-12;  ///< J/byte (HBM2e class)
    double sramEnergyPerByte = 2e-12;   ///< J/byte (L2 class)
    double networkEnergyPerByte = 60e-12; ///< J/byte serialized
    double idlePowerFraction = 0.3;     ///< share of TDP burned idle
    double devicePower = 400.0;         ///< W TDP per device

    /** Scale coefficients for a logic/DRAM technology corner. */
    EnergyModel scaled(double logic_efficiency,
                       double dram_energy_per_byte) const;
};

/** Energy breakdown of one training batch across the system, joules. */
struct EnergyReport
{
    double compute = 0.0;
    double dram = 0.0;
    double network = 0.0;
    double idle = 0.0;

    double total() const;
    /** Average system power over the batch, watts. */
    double averagePower(double batch_time) const;
};

/**
 * Energy of one training batch, estimated from the training report's
 * work terms and the per-device kernel accounting. @p opts are the
 * options @p rep was evaluated with.
 */
EnergyReport trainingEnergyPerBatch(const TransformerConfig &cfg,
                                    const System &sys,
                                    const ParallelConfig &par,
                                    const TrainingOptions &opts,
                                    const TrainingReport &rep,
                                    const EnergyModel &model = {});

/** Cost-of-operation parameters. */
struct TcoModel
{
    double devicePriceUsd = 25000.0;
    double amortizationYears = 4.0;
    double powerCostPerKwh = 0.10;
    double pue = 1.3;                 ///< datacenter overhead
    double interconnectFraction = 0.2; ///< networking capex share
};

/** Result of a TCO estimate for a training run. */
struct TcoReport
{
    double capexUsd = 0.0;   ///< amortized hardware cost
    double energyUsd = 0.0;  ///< electricity
    double totalUsd = 0.0;
};

/**
 * Cost of training for @p batches optimizer steps.
 */
TcoReport trainingCost(const System &sys, double time_per_batch,
                       long long batches, const EnergyReport &energy,
                       const TcoModel &model = {});

} // namespace optimus

#endif // OPTIMUS_ENERGY_ENERGY_H
