// Minimal leveled logging.  Verbosity comes from the IB12X_LOG environment
// variable (error|warn|info|debug|trace); default is warn so simulations are
// quiet unless asked.
#pragma once

#include <cstdio>
#include <string>

#include "sim/time.hpp"

namespace ib12x::sim {

enum class LogLevel : int { Error = 0, Warn = 1, Info = 2, Debug = 3, Trace = 4 };

LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void vlog(LogLevel level, Time now, const char* fmt, ...) __attribute__((format(printf, 3, 4)));
}

}  // namespace ib12x::sim

// Callers pass the current simulation time so messages carry a timestamp.
#define IB12X_LOG(level, now, ...)                                        \
  do {                                                                    \
    if (static_cast<int>(level) <= static_cast<int>(::ib12x::sim::log_level())) \
      ::ib12x::sim::detail::vlog(level, now, __VA_ARGS__);                \
  } while (0)

#define IB12X_WARN(now, ...) IB12X_LOG(::ib12x::sim::LogLevel::Warn, now, __VA_ARGS__)
#define IB12X_INFO(now, ...) IB12X_LOG(::ib12x::sim::LogLevel::Info, now, __VA_ARGS__)
#define IB12X_DEBUG(now, ...) IB12X_LOG(::ib12x::sim::LogLevel::Debug, now, __VA_ARGS__)
#define IB12X_TRACE(now, ...) IB12X_LOG(::ib12x::sim::LogLevel::Trace, now, __VA_ARGS__)
