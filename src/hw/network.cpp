#include "hw/network.h"

#include "util/error.h"

namespace optimus {

double
NetworkLink::utilization(double volume) const
{
    checkConfig(volume >= 0.0, "transfer volume must be non-negative");
    if (volume == 0.0)
        return maxUtilization;
    return maxUtilization * volume / (volume + halfUtilVolume);
}

double
NetworkLink::effectiveBandwidth(double volume) const
{
    return bandwidth * utilization(volume);
}

void
NetworkLink::validate() const
{
    // Messages are built only when a check fails.
    checkConfig(!name.empty(), "network link needs a name");
    if (!(bandwidth > 0.0))
        throw notPositive(name + " bandwidth", bandwidth);
    if (!(latency >= 0.0))
        throw ConfigError(name + ": latency must be non-negative");
    if (!(halfUtilVolume >= 0.0))
        throw ConfigError(name + ": halfUtilVolume must be non-negative");
    if (!(maxUtilization > 0.0 && maxUtilization <= 1.0))
        throw ConfigError(name + ": maxUtilization must be in (0,1]");
    if (!(collectiveOverhead >= 0.0))
        throw ConfigError(name +
                          ": collectiveOverhead must be non-negative");
}

} // namespace optimus
