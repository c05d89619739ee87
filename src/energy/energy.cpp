#include "energy/energy.h"

#include "util/error.h"
#include "workload/graph.h"

namespace optimus {

EnergyModel
EnergyModel::scaled(double logic_efficiency,
                    double dram_energy_per_byte) const
{
    checkPositive(logic_efficiency, "logic efficiency scale");
    EnergyModel m = *this;
    m.flopEnergy = flopEnergy / logic_efficiency;
    m.dramEnergyPerByte = dram_energy_per_byte;
    return m;
}

double
EnergyReport::total() const
{
    return compute + dram + network + idle;
}

double
EnergyReport::averagePower(double batch_time) const
{
    checkPositive(batch_time, "batch time");
    return total() / batch_time;
}

EnergyReport
trainingEnergyPerBatch(const TransformerConfig &cfg, const System &sys,
                       const ParallelConfig &par,
                       const TrainingOptions &opts,
                       const TrainingReport &rep,
                       const EnergyModel &model)
{
    EnergyReport e;

    // Arithmetic work: model FLOPs plus the recomputation replay.
    double recompute_factor =
        rep.time.recompute > 0.0 && rep.time.forward > 0.0
            ? rep.time.recompute / (3.0 * rep.time.forward)
            : 0.0;
    double flops = rep.modelFlops * (1.0 + recompute_factor);
    e.compute = flops * model.flopEnergy;

    // DRAM traffic: per-device per-layer accounting scaled out.
    double layer_bytes = 0.0;
    if (!rep.layerForward.bytesPerLevel.empty())
        layer_bytes = rep.layerForward.bytesPerLevel[0] +
                      rep.layerBackward.bytesPerLevel[0];
    double device_bytes = layer_bytes *
                          double(cfg.numLayers / par.pipelineParallel) *
                          double(rep.microbatches);
    e.dram = device_bytes * double(sys.totalDevices()) *
             model.dramEnergyPerByte;

    // Network: TP collectives dominate volume; approximate from the
    // gradient all-reduce plus TP traffic (6 collectives of b*s*h
    // activations per layer per microbatch).
    double tp_bytes = double(par.microbatchSize) * double(opts.seqLength) *
                      cfg.hiddenSize * activationBytes(opts.precision) *
                      6.0 * double(cfg.numLayers) *
                      double(rep.microbatches);
    double dp_bytes = parametersPerDevice(cfg, par) * 2.0 * 2.0;
    e.network = (tp_bytes + dp_bytes) * double(sys.totalDevices()) *
                model.networkEnergyPerByte;

    // Idle burn across the whole batch.
    e.idle = model.devicePower * model.idlePowerFraction *
             rep.timePerBatch * double(sys.totalDevices());
    return e;
}

TcoReport
trainingCost(const System &sys, double time_per_batch, long long batches,
             const EnergyReport &energy, const TcoModel &model)
{
    checkPositive(time_per_batch, "time per batch");
    checkPositive(batches, "batches");

    TcoReport r;
    double run_seconds = time_per_batch * double(batches);
    double fleet_price = model.devicePriceUsd *
                         double(sys.totalDevices()) *
                         (1.0 + model.interconnectFraction);
    double amortization_seconds =
        model.amortizationYears * 365.25 * 24.0 * 3600.0;
    r.capexUsd = fleet_price * run_seconds / amortization_seconds;

    double kwh = energy.total() * double(batches) / 3.6e6;
    r.energyUsd = kwh * model.powerCostPerKwh * model.pue;
    r.totalUsd = r.capexUsd + r.energyUsd;
    return r;
}

} // namespace optimus
