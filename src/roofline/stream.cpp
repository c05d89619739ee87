#include "roofline/stream.h"

#include "util/error.h"

namespace optimus {

KernelEstimate
estimateStream(const Device &dev, const std::string &label, double bytes,
               double flops, Precision precision, bool launch)
{
    if (!(bytes >= 0.0))
        throw ConfigError(label + ": bytes must be non-negative");
    if (!(flops >= 0.0))
        throw ConfigError(label + ": flops must be non-negative");

    KernelEstimate est;
    est.kernel = label;
    est.flops = flops;
    est.bytesPerLevel.assign(dev.mem.size(), 0.0);
    est.memTimePerLevel.assign(dev.mem.size(), 0.0);
    est.bytesPerLevel[0] = bytes;
    est.memTimePerLevel[0] =
        bytes / (dev.dram().bandwidth * dev.dram().utilization);
    est.computeTime = flops / dev.vectorFlops(precision);
    est.overhead = launch ? dev.kernelLaunchOverhead : 0.0;
    finalizeEstimate(est);
    return est;
}

KernelEstimate
estimateSoftmax(const Device &dev, double rows, double cols,
                Precision precision)
{
    double elems = rows * cols;
    double bytes = 2.0 * elems * precisionBytes(precision);
    // exp + running max + sum + divide: ~5 vector ops per element.
    return estimateStream(dev, "softmax", bytes, 5.0 * elems, precision);
}

KernelEstimate
estimateLayerNorm(const Device &dev, double rows, double cols,
                  Precision precision)
{
    double elems = rows * cols;
    double bytes = 2.0 * elems * precisionBytes(precision);
    // mean + variance + normalize + scale/shift: ~5 ops per element.
    return estimateStream(dev, "layernorm", bytes, 5.0 * elems,
                          precision);
}

KernelEstimate
estimateElementwise(const Device &dev, const std::string &label,
                    double elements, double flops_per_elem,
                    Precision precision, bool launch)
{
    double bytes = 2.0 * elements * precisionBytes(precision);
    return estimateStream(dev, label, bytes, flops_per_elem * elements,
                          precision, launch);
}

} // namespace optimus
