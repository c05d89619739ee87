#include "util/error.h"

namespace optimus {

void
checkConfig(bool condition, std::string_view message)
{
    if (!condition)
        throw ConfigError(std::string(message));
}

void
checkPositive(double value, std::string_view name)
{
    if (!(value > 0.0))
        throw notPositive(name, value);
}

void
checkPositive(long long value, std::string_view name)
{
    if (value <= 0)
        throw ConfigError(std::string(name) + " must be positive, got " +
                          std::to_string(value));
}

ConfigError
notPositive(std::string_view name, double value)
{
    return ConfigError(std::string(name) + " must be positive, got " +
                       std::to_string(value));
}

} // namespace optimus
