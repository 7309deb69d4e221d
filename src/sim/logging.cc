#include "logging.h"

#include <atomic>
#include <cstdio>

namespace prosperity {

namespace {

std::atomic<bool> g_verbose{true};

const char*
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kInform: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kPanic: return "panic";
    }
    return "?";
}

} // namespace

void
setVerbose(bool verbose)
{
    g_verbose.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return g_verbose.load(std::memory_order_relaxed);
}

namespace detail {

void
emit(LogLevel level, const std::string& msg)
{
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
terminate(LogLevel level, const std::string& msg, const char*, int)
{
    emit(level, msg);
    std::abort();
}

} // namespace detail

} // namespace prosperity
