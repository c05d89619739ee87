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
    // Every check builds its message only when it fails: lint, the
    // planner and every DSE probe validate devices in hot loops.
    checkConfig(!name.empty(), "device needs a name");
    if (matrixThroughput.empty())
        throw ConfigError(name +
                          ": needs at least one matrix throughput entry");
    if (mem.empty())
        throw ConfigError(name + ": needs at least one memory level");
    for (const auto &[p, f] : matrixThroughput)
        if (!(f > 0.0))
            throw notPositive(
                name + " matrix flops (" + precisionName(p) + ")", f);
    for (const auto &[p, f] : vectorThroughput)
        if (!(f > 0.0))
            throw notPositive(
                name + " vector flops (" + precisionName(p) + ")", f);
    for (size_t i = 0; i < mem.size(); ++i) {
        const MemoryLevel &m = mem[i];
        if (m.name.empty())
            throw ConfigError(name + ": memory level needs a name");
        if (!(m.capacity > 0.0))
            throw notPositive(name + " " + m.name + " capacity",
                              m.capacity);
        if (!(m.bandwidth > 0.0))
            throw notPositive(name + " " + m.name + " bandwidth",
                              m.bandwidth);
        if (!(m.utilization > 0.0 && m.utilization <= 1.0))
            throw ConfigError(name + " " + m.name +
                              " utilization must be in (0,1]");
        // Inner levels must be smaller than outer ones. Bandwidth is
        // deliberately NOT required to increase inward: advanced DRAM
        // stacks can out-run an older last-level cache, the regime
        // Fig. 9 of the paper studies ("the problem starts to become
        // L2-bound").
        if (i > 0 && !(m.capacity < mem[i - 1].capacity))
            throw ConfigError(name + ": memory level " + m.name +
                              " must be smaller than " + mem[i - 1].name);
    }
    if (!(matrixMaxEfficiency > 0.0 && matrixMaxEfficiency <= 1.0))
        throw ConfigError(name + ": matrixMaxEfficiency must be in (0,1]");
    if (!(gemmKHalf >= 0.0))
        throw ConfigError(name + ": gemmKHalf must be non-negative");
    if (!(gemvDramUtilization > 0.0 && gemvDramUtilization <= 1.0))
        throw ConfigError(name + ": gemvDramUtilization must be in (0,1]");
    if (!(kernelLaunchOverhead >= 0.0))
        throw ConfigError(name +
                          ": kernelLaunchOverhead must be non-negative");
}

} // namespace optimus
