/**
 * @file
 * Repo-wide benchmark harness: timed cases with a stable JSON trajectory.
 *
 * Every performance-relevant PR runs `bench_hotpath` (and future
 * drivers) through this harness, producing `BENCH_<suite>.json` files
 * whose schema is documented in docs/BENCHMARKS.md. The schema is
 * append-only — fields are never renamed or removed — so the JSON files
 * committed over time form a comparable performance trajectory.
 *
 * Usage:
 * @code
 *   bench::Harness h("hotpath");
 *   h.setConfig("mode", "full");
 *   h.run("detector/optimized", "detector",
 *         {{"rows", "256"}, {"density", "0.15"}},
 *         {.reps = 50, .warmup = 5, .items = 256.0},
 *         [&] { return checksumOf(detector.detect(tile)); });
 *   h.writeJsonFile("BENCH_hotpath.json");
 * @endcode
 *
 * Timed functions return a std::uint64_t checksum: it defeats dead-code
 * elimination and doubles as a cross-implementation identity check
 * (e.g. naive vs optimized detector must produce equal checksums). The
 * recorded checksum is the first timed repetition's value.
 */

#ifndef PROSPERITY_BENCH_BENCH_HARNESS_H
#define PROSPERITY_BENCH_BENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace prosperity::bench {

/** Stable-order key/value parameter list attached to a case. */
using ParamList = std::vector<std::pair<std::string, std::string>>;

/** Repetition and workload settings of one timed case. */
struct CaseOptions
{
    std::size_t reps = 20;   ///< timed repetitions (>= 1 enforced)
    std::size_t warmup = 2;  ///< untimed warmup repetitions
    double items = 0.0;      ///< work units per rep (rows, words, ...)
};

/** Measured outcome of one timed case. */
struct CaseResult
{
    std::string name;   ///< unique within the suite, e.g. "detector/naive"
    std::string stage;  ///< pipeline stage: detector, spikegen, gemm, ...
    ParamList params;
    std::size_t reps = 0;
    std::size_t warmup = 0;
    double best_ns = 0.0;    ///< fastest repetition
    double median_ns = 0.0;  ///< median repetition
    double mean_ns = 0.0;    ///< arithmetic mean
    double items = 0.0;
    std::uint64_t checksum = 0; ///< the first timed repetition's value

    /** items / median seconds, or 0 when items is unset. */
    double itemsPerSec() const;
};

/** Collects timed cases and serializes the BENCH_*.json document. */
class Harness
{
  public:
    explicit Harness(std::string suite) : suite_(std::move(suite)) {}

    /** Set a suite-level config entry (mode, threads, git rev, ...). */
    void setConfig(const std::string& key, const std::string& value);

    /**
     * Record the host fingerprint as config entries: cpu_model, cores,
     * simd_tier (the dispatched kernel tier, PROSPERITY_SIMD applied),
     * compiler and build_type. Timings are only comparable between
     * documents whose fingerprints agree.
     */
    void setHostFingerprint();

    /**
     * Time `fn` (signature: std::uint64_t()) for opts.reps repetitions
     * after opts.warmup untimed runs, record the result, and return a
     * copy of it (by value: later run() calls may reallocate the
     * internal result store). Also prints a one-line summary to stdout.
     */
    CaseResult run(const std::string& name, const std::string& stage,
                   ParamList params, const CaseOptions& opts,
                   const std::function<std::uint64_t()>& fn);

    const std::vector<CaseResult>& results() const { return results_; }

    /** Serialize the document (schema docs/BENCHMARKS.md). */
    void writeJson(std::ostream& os) const;

    /** writeJson to `path`; returns false on I/O failure. */
    bool writeJsonFile(const std::string& path) const;

  private:
    std::string suite_;
    ParamList config_;
    std::vector<CaseResult> results_;
};

/** Monotonic nanosecond clock reading used by the harness. */
double nowNs();

} // namespace prosperity::bench

#endif // PROSPERITY_BENCH_BENCH_HARNESS_H
