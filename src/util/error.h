/**
 * @file
 * Error types and checking helpers.
 *
 * Following the gem5 fatal()/panic() distinction:
 *  - ConfigError is thrown for conditions that are the caller's fault
 *    (invalid model/system/parallelism configuration).
 *  - ModelError is thrown when the performance model itself reaches an
 *    inconsistent state (an internal bug surfaced to the caller).
 */

#ifndef OPTIMUS_UTIL_ERROR_H
#define OPTIMUS_UTIL_ERROR_H

#include <stdexcept>
#include <string>
#include <string_view>

namespace optimus {

/** Raised when a user-supplied configuration is invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error("config error: " + what)
    {}
};

/** Raised when the model reaches an internally inconsistent state. */
class ModelError : public std::logic_error
{
  public:
    explicit ModelError(const std::string &what)
        : std::logic_error("model error: " + what)
    {}
};

/** Throw ConfigError with @p message unless @p condition holds. */
void checkConfig(bool condition, std::string_view message);

/** Throw ConfigError unless @p value is strictly positive. */
void checkPositive(double value, std::string_view name);

/** Throw ConfigError unless @p value is a positive integer. */
void checkPositive(long long value, std::string_view name);

/**
 * The error checkPositive(@p value, @p name) throws, for checks that
 * build @p name only once they fail.
 */
ConfigError notPositive(std::string_view name, double value);

} // namespace optimus

#endif // OPTIMUS_UTIL_ERROR_H
