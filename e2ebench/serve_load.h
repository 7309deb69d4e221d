/**
 * @file
 * The `serve_mixed` workload: an open-loop flow of
 * `POST /v1/runs` -> poll `GET /v1/jobs/<id>` -> `GET /v1/reports/<id>`
 * against a SimulationService behind an HttpServer on loopback.
 *
 * Requests are due at a fixed rate. A fixed share of them (warm)
 * repeats keys a priming daemon already published to the result
 * store, so the service answers them without simulating; the rest
 * (cold) carry fresh seeds, simulate, and publish. Latency is timed
 * from when a request was due, not from when it was sent, so a stall
 * is charged to every request it delays.
 */

#ifndef PROSPERITY_E2EBENCH_SERVE_LOAD_H
#define PROSPERITY_E2EBENCH_SERVE_LOAD_H

#include <cstdint>
#include <string>

#include "util/json.h"

namespace e2ebench {

struct ServeLoadOptions
{
    std::uint64_t seed = 1;
    /** Length of the arrival schedule. */
    double seconds = 10.0;
    /** Engine worker threads of the daemon. */
    std::size_t threads = 4;
    /** Scratch directory for the result store (emptied first). */
    std::string work_dir;
    /** Record spans (all traffic joins one trace) and export them to
     *  `trace_path`. */
    bool traced = false;
    std::string trace_path;
};

/**
 * Prime the store, run one schedule, check every report body against
 * an offline SimulationEngine run of the same job, and return the raw
 * per-request measurements that run.py turns into metrics.
 */
prosperity::json::Value runServeLoad(const ServeLoadOptions& options);

/**
 * Set-up of the serve workload: start a daemon on an empty store
 * under `work_dir` and wait for its first answer. Returns nowNs() at
 * that answer; the daemon is torn down afterwards, untimed.
 */
std::uint64_t serveSetup(const std::string& work_dir, std::size_t threads);

} // namespace e2ebench

#endif // PROSPERITY_E2EBENCH_SERVE_LOAD_H
