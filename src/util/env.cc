#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace goggles {

std::string GetEnvOr(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? fallback : std::string(v);
}

int64_t GetEnvIntOr(const std::string& name, int64_t fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(v, &end, 10);
  // Reject empty values, trailing garbage ("12abc"), and out-of-range
  // values rather than silently truncating the parse.
  if (end == v || *end != '\0' || errno == ERANGE) return fallback;
  return static_cast<int64_t>(parsed);
}

int64_t EnvRangedInt(const std::string& name, int64_t fallback,
                     int64_t min_value, int64_t max_value) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || parsed < min_value ||
      parsed > max_value) {
    std::fprintf(stderr,
                 "warning: %s='%s' is not an integer in [%lld, %lld]; "
                 "using %lld\n",
                 name.c_str(), v, static_cast<long long>(min_value),
                 static_cast<long long>(max_value),
                 static_cast<long long>(fallback));
    return fallback;
  }
  return static_cast<int64_t>(parsed);
}

double GetEnvDoubleOr(const std::string& name, double fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') return fallback;
  // Non-finite covers overflow ("1e999" -> +-HUGE_VAL) and literal
  // "inf"/"nan"; underflow ("1e-400" -> denormal or zero) stays accepted,
  // the user meant ~0.
  if (!std::isfinite(parsed)) return fallback;
  return parsed;
}

}  // namespace goggles
