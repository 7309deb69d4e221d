#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2ebench {

namespace json = prosperity::json;
namespace obs = prosperity::obs;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t value)
{
    value += 0x9e3779b97f4a7c15ULL;
    value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
    value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
    return value ^ (value >> 31);
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        state = mixSeed(state);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

TracedPass::TracedPass()
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.setCapacity(kTraceCapacity);
    recorder.setEnabled(true);
    trace_id_ = recorder.mintTraceId();
    recorded_before_ = recorder.recorded();
}

json::Value
TracedPass::finish(const std::string& path)
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    const std::vector<obs::TraceSpan> spans = recorder.collect(trace_id_);
    const std::uint64_t recorded = recorder.recorded() - recorded_before_;
    recorder.setEnabled(false);

    std::ofstream os(path);
    obs::chromeTraceJson(spans).write(os, -1);
    os << '\n';
    if (!os.flush())
        throw std::runtime_error("cannot write " + path);

    // Every span the pass produced belongs to its trace (all traffic
    // carries the pass's id), so any shortfall was overwritten in the
    // ring or never reached it.
    const std::size_t collected = spans.size();
    json::Value out = json::Value::object();
    out.set("file", path);
    out.set("capacity", kTraceCapacity);
    out.set("spans_recorded", static_cast<std::size_t>(recorded));
    out.set("spans_collected", collected);
    out.set("spans_dropped",
            recorded > collected
                ? static_cast<std::size_t>(recorded - collected)
                : std::size_t{0});
    return out;
}

} // namespace e2ebench
