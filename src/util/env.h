#pragma once

#include <cstdint>
#include <string>

/// \file env.h
/// \brief Environment-variable helpers for experiment knobs.

namespace goggles {

/// \brief Returns the environment variable `name`, or `fallback` if unset.
std::string GetEnvOr(const std::string& name, const std::string& fallback);

/// \brief Integer-valued environment variable with fallback.
int64_t GetEnvIntOr(const std::string& name, int64_t fallback);

/// \brief Integer-valued environment variable that must lie in
/// [`min_value`, `max_value`]. Malformed, trailing-garbage or
/// out-of-range values warn on stderr and fall back to `fallback` — an
/// env knob is never silently truncated or clamped. Use the bounds of the
/// knob's command-line flag twin.
int64_t EnvRangedInt(const std::string& name, int64_t fallback,
                     int64_t min_value, int64_t max_value);

/// \brief Double-valued environment variable with fallback.
double GetEnvDoubleOr(const std::string& name, double fallback);

}  // namespace goggles
