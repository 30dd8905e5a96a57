/**
 * @file
 * Status and error reporting, following the gem5 idiom.
 *
 * panic() is for conditions that indicate a bug in the simulator
 * itself and aborts; fatal() is for user-caused conditions (bad
 * configuration) and throws so that tests can observe it; warn()
 * reports without stopping.
 *
 * All reporting paths are thread-safe: messages are formatted on the
 * calling thread and written to the shared sink under one mutex, so
 * parallel campaign trials can never interleave or tear each other's
 * log lines.
 */

#ifndef LIGHTPC_SIM_LOGGING_HH
#define LIGHTPC_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace lightpc
{

/** Exception thrown by fatal(): a user-correctable misconfiguration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

namespace detail
{

/** Fold a parameter pack into one message string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/** Abort: a simulator bug that should never happen. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl("", 0,
                      detail::formatMessage(std::forward<Args>(args)...));
}

/** Stop: a user error (bad configuration, invalid argument). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl("", 0,
                      detail::formatMessage(std::forward<Args>(args)...));
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::formatMessage(std::forward<Args>(args)...));
}

/** Quiet mode suppresses warn() output (used by tests). */
void setLogQuiet(bool quiet);

} // namespace lightpc

#endif // LIGHTPC_SIM_LOGGING_HH
