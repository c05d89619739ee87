#include "hw/device.h"

#include "util/error.h"

namespace optimus {

double
Device::matrixFlops(Precision p) const
{
    auto it = matrixThroughput.find(p);
    if (it == matrixThroughput.end())
        throw ConfigError(name + ": matrix engine does not support " +
                          precisionName(p));
    return it->second;
}

double
Device::vectorFlops(Precision p) const
{
    auto it = vectorThroughput.find(p);
    if (it != vectorThroughput.end())
        return it->second;
    // Vector ops are routinely run at a wider precision than the
    // matrix math; fall back to fp32 if the exact entry is missing.
    it = vectorThroughput.find(Precision::FP32);
    if (it == vectorThroughput.end())
        throw ConfigError(name + ": no vector throughput for " +
                          precisionName(p) + " and no fp32 fallback");
    return it->second;
}

bool
Device::supportsMatrix(Precision p) const
{
    return matrixThroughput.count(p) > 0;
}

const MemoryLevel &
Device::dram() const
{
    if (mem.empty())
        throw ConfigError(name + ": device has no memory levels");
    return mem.front();
}

const MemoryLevel &
Device::level(const std::string &level_name) const
{
    for (const auto &m : mem)
        if (m.name == level_name)
            return m;
    throw ConfigError(name + ": no memory level named " + level_name);
}

void
Device::validate() const
{
    checkConfig(!name.empty(), "device needs a name");
    checkConfig(!matrixThroughput.empty(),
                name + ": needs at least one matrix throughput entry");
    checkConfig(!mem.empty(), name + ": needs at least one memory level");
    for (const auto &[p, f] : matrixThroughput)
        checkPositive(f, name + " matrix flops (" + precisionName(p) + ")");
    for (const auto &[p, f] : vectorThroughput)
        checkPositive(f, name + " vector flops (" + precisionName(p) + ")");
    for (size_t i = 0; i < mem.size(); ++i) {
        const MemoryLevel &m = mem[i];
        checkConfig(!m.name.empty(), name + ": memory level needs a name");
        checkPositive(m.capacity, name + " " + m.name + " capacity");
        checkPositive(m.bandwidth, name + " " + m.name + " bandwidth");
        checkConfig(m.utilization > 0.0 && m.utilization <= 1.0,
                    name + " " + m.name + " utilization must be in (0,1]");
        // Inner levels must be smaller than outer ones. Bandwidth is
        // deliberately NOT required to increase inward: advanced DRAM
        // stacks can out-run an older last-level cache, the regime
        // Fig. 9 of the paper studies ("the problem starts to become
        // L2-bound").
        if (i > 0) {
            checkConfig(m.capacity < mem[i - 1].capacity,
                        name + ": memory level " + m.name +
                        " must be smaller than " + mem[i - 1].name);
        }
    }
    checkConfig(matrixMaxEfficiency > 0.0 && matrixMaxEfficiency <= 1.0,
                name + ": matrixMaxEfficiency must be in (0,1]");
    checkConfig(gemmKHalf >= 0.0,
                name + ": gemmKHalf must be non-negative");
    checkConfig(gemvDramUtilization > 0.0 && gemvDramUtilization <= 1.0,
                name + ": gemvDramUtilization must be in (0,1]");
    checkConfig(kernelLaunchOverhead >= 0.0,
                name + ": kernelLaunchOverhead must be non-negative");
}

} // namespace optimus
