/**
 * @file
 * Status and error reporting for the Prosperity simulator.
 *
 * panic() reports an internal invariant violation that indicates a
 * simulator bug; user errors (bad configuration, invalid arguments) are
 * typed exceptions thrown at parse time instead. warn() reports a
 * condition without stopping the simulation.
 */

#ifndef PROSPERITY_SIM_LOGGING_H
#define PROSPERITY_SIM_LOGGING_H

#include <cstdlib>
#include <sstream>
#include <string>

namespace prosperity {

/** Severity of a log message. */
enum class LogLevel {
    kWarn,
    kPanic,
};

namespace detail {

/** Emit a formatted log record and abort. */
[[noreturn]] void terminate(LogLevel level, const std::string& msg,
                            const char* file, int line);

/** Emit a non-terminating log record. */
void emit(LogLevel level, const std::string& msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation (a simulator bug). Aborts so a
 * core dump / debugger can capture the state.
 */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::terminate(LogLevel::kPanic,
                      detail::concat(std::forward<Args>(args)...),
                      nullptr, 0);
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::emit(LogLevel::kWarn,
                 detail::concat(std::forward<Args>(args)...));
}

} // namespace prosperity

/** Assert a simulator invariant; panics with the condition text on failure. */
#define PROSPERITY_ASSERT(cond, ...)                                        \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::prosperity::panic("assertion failed: ", #cond, " ",          \
                                ##__VA_ARGS__);                            \
        }                                                                   \
    } while (0)

#endif // PROSPERITY_SIM_LOGGING_H
