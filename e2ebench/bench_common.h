/**
 * @file
 * Helpers shared by the end-to-end benchmark driver's translation
 * units: the clock, process resource readings, the seed mixer and
 * the trace-recorder bookkeeping of a traced pass.
 */

#ifndef PROSPERITY_E2EBENCH_BENCH_COMMON_H
#define PROSPERITY_E2EBENCH_BENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"

namespace e2ebench {

/** CLOCK_MONOTONIC in nanoseconds (std::chrono::steady_clock); the
 *  same clock Python's time.monotonic_ns() reads, so run.py can time
 *  set-up from before it spawns the driver. */
std::uint64_t nowNs();

/** User + system CPU seconds of the whole process so far. */
double cpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** SplitMix64 step: the benchmark's only source of derived seeds and
 *  orders, so the same --seed always gives the same inputs. */
std::uint64_t mixSeed(std::uint64_t value);

/** Seed-determined permutation of 0..n-1 (Fisher-Yates on mixSeed). */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/** Whole file as a string; throws std::runtime_error when unreadable. */
std::string readFile(const std::string& path);

/** Ring size of a traced pass; fig9, the largest, records ~20k spans. */
constexpr std::size_t kTraceCapacity = 1u << 18;

/**
 * One traced pass against the process-wide recorder: mints a trace
 * id, remembers how many spans the recorder had accepted, and on
 * finish() collects the pass's spans, writes them as Chrome trace
 * JSON and reports recorded / collected / dropped counts.
 */
class TracedPass
{
  public:
    /** Enables the recorder with a ring of kTraceCapacity spans
     *  (which also clears it). */
    TracedPass();

    std::uint64_t traceId() const { return trace_id_; }

    /** Collect, export to `path` and disable the recorder. Returns
     *  {"file", "spans_recorded", "spans_collected", "spans_dropped",
     *  "capacity"}. */
    prosperity::json::Value finish(const std::string& path);

  private:
    std::uint64_t trace_id_;
    std::uint64_t recorded_before_;
};

} // namespace e2ebench

#endif // PROSPERITY_E2EBENCH_BENCH_COMMON_H
