#include "logging.h"

#include <cstdio>

namespace prosperity {

namespace {

const char*
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kWarn: return "warn";
      case LogLevel::kPanic: return "panic";
    }
    return "?";
}

} // namespace

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
