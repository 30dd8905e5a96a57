#include "sim/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace lightpc
{

namespace
{

std::atomic<bool> logQuiet{false};

/**
 * One global sink guarded by one mutex: parallel campaign trials all
 * report through here, and each message must land as one intact line
 * (never interleaved mid-line with another worker's). Messages are
 * formatted before the lock, so the critical section is a single
 * stream insertion.
 */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

void
setLogQuiet(bool quiet)
{
    logQuiet.store(quiet, std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *, int, const std::string &msg)
{
    {
        const std::lock_guard<std::mutex> lock(logMutex());
        std::cerr << "panic: " + msg + "\n" << std::flush;
    }
    std::abort();
}

void
fatalImpl(const char *, int, const std::string &msg)
{
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    if (logQuiet.load(std::memory_order_relaxed))
        return;
    const std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << "warn: " + msg + "\n" << std::flush;
}

} // namespace detail

} // namespace lightpc
