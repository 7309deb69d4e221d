/**
 * @file
 * Driver of the end-to-end benchmark: runs one workload through the
 * simulator's public entry points and writes the raw measurements as
 * JSON. run.py builds this binary, runs it, and turns the raw document
 * into the benchmark's metrics; see README.md.
 *
 *   e2e_bench --workload fig8|fig9|adaptive|serve_mixed --seed N
 *             --seconds S --mode setup|run|trace --out DIR
 *             [--spec-dir DIR]
 *
 * `setup` prints `ready_ns <CLOCK_MONOTONIC ns>` at the moment the
 * workload would submit its first job (or the daemon first answered)
 * and exits. `run` repeats untraced passes for S seconds. `trace`
 * alternates untraced and traced passes for S seconds and exports the
 * last traced pass as Chrome trace JSON.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "bench_common.h"
#include "bitmatrix/simd_dispatch.h"
#include "obs/trace.h"
#include "serve_load.h"
#include "util/build_config.h"
#include "util/json.h"

namespace {

namespace fs = std::filesystem;
namespace json = prosperity::json;
namespace obs = prosperity::obs;
using namespace e2ebench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string mode = "run";
    std::string out_dir;
    std::string spec_dir;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::stoull(value);
        else if (arg == "--seconds")
            args.seconds = std::stod(value);
        else if (arg == "--mode")
            args.mode = value;
        else if (arg == "--out")
            args.out_dir = value;
        else if (arg == "--spec-dir")
            args.spec_dir = value;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (args.out_dir.empty())
        throw std::invalid_argument("--out DIR is required");
    if (args.mode != "setup" && args.mode != "run" && args.mode != "trace")
        throw std::invalid_argument("--mode must be setup, run or trace");
    return args;
}

/** Campaign workloads run at min(nproc, 4) engine threads. */
std::size_t
engineThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

bool
isCampaign(const std::string& workload)
{
    return workload == "fig8" || workload == "fig9" ||
           workload == "adaptive";
}

prosperity::CampaignSpec
loadSpec(const Args& args)
{
    if (args.workload == "adaptive") {
        if (args.spec_dir.empty())
            throw std::invalid_argument("adaptive needs --spec-dir");
        return prosperity::CampaignSpec::load(args.spec_dir +
                                              "/adaptive.json");
    }
    return prosperity::loadNamedCampaign(args.workload);
}

/** One CampaignRunner::run on a cold engine. */
struct CampaignPass
{
    bool traced = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /** When each progress event reached the caller, from run() start. */
    std::vector<double> result_ms;
    prosperity::CampaignReport report;
    prosperity::EngineStats engine;
};

CampaignPass
runCampaignPass(const prosperity::CampaignSpec& spec, std::size_t threads,
                std::uint64_t trace_id)
{
    CampaignPass pass;
    pass.traced = trace_id != 0;
    prosperity::EngineOptions engine_options;
    engine_options.threads = threads;
    prosperity::SimulationEngine engine(engine_options);
    prosperity::CampaignRunner runner(engine);

    const double cpu0 = cpuSeconds();
    const std::uint64_t t0 = nowNs();
    {
        std::optional<obs::ScopedTraceContext> scope;
        std::optional<obs::ScopedSpan> span;
        if (pass.traced) {
            scope.emplace(obs::TraceContext{trace_id, 0});
            span.emplace("bench", "campaign/" + spec.name);
        }
        pass.report =
            runner.run(spec, [&](const prosperity::CampaignProgress&) {
                pass.result_ms.push_back(
                    static_cast<double>(nowNs() - t0) * 1e-6);
            });
    }
    pass.wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    pass.cpu_s = cpuSeconds() - cpu0;
    pass.engine = engine.stats();
    return pass;
}

std::string
reportText(const prosperity::CampaignReport& report, const std::string& path)
{
    // Through the same writer the CLI uses, so bytes compare exactly.
    if (!report.writeJsonFile(path))
        throw std::runtime_error("cannot write " + path);
    return readFile(path);
}

/** Cells of `text` that differ from the golden report (0 when equal
 *  byte for byte; at least 1 otherwise). */
std::size_t
goldenMismatches(const std::string& text, const std::string& golden)
{
    if (text == golden)
        return 0;
    try {
        const json::Value::Array& got =
            json::Value::parse(text).at("cells").asArray();
        const json::Value::Array& want =
            json::Value::parse(golden).at("cells").asArray();
        std::size_t differing =
            got.size() > want.size() ? got.size() - want.size()
                                     : want.size() - got.size();
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
            if (!(got[i] == want[i]))
                ++differing;
        return std::max<std::size_t>(differing, 1);
    } catch (const std::exception&) {
        return 1;
    }
}

json::Value
engineJson(const prosperity::EngineStats& stats)
{
    json::Value out = json::Value::object();
    out.set("jobs_simulated", stats.misses);
    out.set("memo_hits", stats.hits);
    out.set("inflight_dedups", stats.in_flight_dedups);
    return out;
}

json::Value
numbers(const std::vector<double>& values)
{
    json::Value out = json::Value::array();
    for (double v : values)
        out.push(v);
    return out;
}

/** Run fig8 / fig9 / adaptive for the given mode. */
json::Value
runCampaignWorkload(const Args& args, json::Value doc)
{
    const prosperity::CampaignSpec spec = loadSpec(args);
    const std::size_t threads = engineThreads();
    const bool adaptive = spec.sampling.has_value();
    const std::string golden_path = std::string(PROSPERITY_GOLDEN_DIR) +
                                    "/" + args.workload + ".report.json";
    const std::string golden = adaptive ? "" : readFile(golden_path);
    const std::string report_path = args.out_dir + "/report.json";
    const std::string trace_path = args.out_dir + "/trace.json";

    json::Value passes = json::Value::array();
    std::string first_report;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t check_failures = 0;
    json::Value trace_doc;
    json::Value labels = json::Value::object();
    CampaignPass last;

    const std::uint64_t start = nowNs();
    const double budget_ns = args.seconds * 1e9;
    bool traced_done = false;
    bool untraced_done = false;
    for (std::size_t i = 0;; ++i) {
        const bool elapsed =
            static_cast<double>(nowNs() - start) >= budget_ns;
        const bool want_traced = args.mode == "trace" && i % 2 == 1;
        if (elapsed && untraced_done &&
            (args.mode != "trace" || traced_done))
            break;

        std::optional<TracedPass> traced;
        if (want_traced)
            traced.emplace();
        CampaignPass pass = runCampaignPass(
            spec, threads, traced ? traced->traceId() : 0);
        if (traced) {
            trace_doc = traced->finish(trace_path);
            traced_done = true;
        } else {
            untraced_done = true;
        }

        // Output checks, outside the timed interval.
        const std::string text = reportText(pass.report, report_path);
        const std::size_t ops = pass.result_ms.size();
        attempted += ops;
        std::size_t bad = 0;
        if (adaptive) {
            // Every pass must reproduce the first byte for byte; run.py
            // checks the first against the pinned digest.
            if (first_report.empty())
                fs::copy_file(report_path,
                              args.out_dir + "/adaptive.report.json",
                              fs::copy_options::overwrite_existing);
            else if (text != first_report)
                bad = ops;
        } else {
            bad = std::min(ops, goldenMismatches(text, golden));
        }
        if (first_report.empty())
            first_report = text;
        failed += bad;
        check_failures += bad;

        json::Value p = json::Value::object();
        p.set("traced", pass.traced);
        p.set("wall_s", pass.wall_s);
        p.set("cpu_s", pass.cpu_s);
        p.set("result_ms", numbers(pass.result_ms));
        p.set("engine", engineJson(pass.engine));
        passes.push(std::move(p));
        last = std::move(pass);
    }

    std::size_t seeds_drawn = 0;
    std::size_t cells_converged = 0;
    for (const prosperity::CampaignCell& cell : last.report.cells) {
        labels.set(cell.result.accelerator,
                   spec.accelerators[cell.accelerator_index].label);
        if (cell.sampling) {
            seeds_drawn += cell.sampling->n_seeds;
            cells_converged += cell.sampling->converged ? 1 : 0;
        }
    }

    doc.set("threads", threads);
    doc.set("jobs", spec.expandJobs().size());
    doc.set("passes", std::move(passes));
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("check_failures", check_failures);
    doc.set("labels", std::move(labels));
    if (adaptive) {
        json::Value stats = json::Value::object();
        stats.set("seeds_drawn", seeds_drawn);
        stats.set("cells_converged", cells_converged);
        stats.set("cells", last.report.cells.size());
        doc.set("adaptive", std::move(stats));
    }
    if (args.mode == "trace")
        doc.set("trace", std::move(trace_doc));
    return doc;
}

json::Value
runServeWorkload(const Args& args, json::Value doc)
{
    ServeLoadOptions options;
    options.seed = args.seed;
    options.threads = engineThreads();
    options.work_dir = args.out_dir;
    options.trace_path = args.out_dir + "/trace.json";

    json::Value passes = json::Value::array();
    if (args.mode == "trace") {
        // Equal halves, untraced then traced, so the overhead compares
        // schedules of the same length.
        options.seconds = args.seconds / 2.0;
        passes.push(runServeLoad(options));
        options.traced = true;
        passes.push(runServeLoad(options));
    } else {
        options.seconds = args.seconds;
        passes.push(runServeLoad(options));
    }
    // The first pass's own peak, read before its offline output check.
    doc.set("peak_rss_mb", passes.asArray().front().at("peak_rss_mb"));
    doc.set("threads", options.threads);
    doc.set("passes", std::move(passes));
    return doc;
}

std::uint64_t
setupOnce(const Args& args)
{
    if (args.workload == "serve_mixed")
        return serveSetup(args.out_dir, engineThreads());
    const prosperity::CampaignSpec spec = loadSpec(args);
    prosperity::EngineOptions engine_options;
    engine_options.threads = engineThreads();
    prosperity::SimulationEngine engine(engine_options);
    prosperity::CampaignRunner runner(engine);
    (void)runner;
    return nowNs();
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (!isCampaign(args.workload) && args.workload != "serve_mixed")
            throw std::invalid_argument("unknown workload '" +
                                        args.workload + "'");
        fs::create_directories(args.out_dir);

        if (args.mode == "setup") {
            std::cout << "ready_ns " << setupOnce(args) << std::endl;
            return 0;
        }

        const prosperity::util::BuildConfig build =
            prosperity::util::buildConfig();
        json::Value doc = json::Value::object();
        doc.set("workload", args.workload);
        doc.set("seed", static_cast<double>(args.seed));
        doc.set("mode", args.mode);
        json::Value fingerprint = json::Value::object();
        fingerprint.set("simd_tier", prosperity::simdTierName(
                                         prosperity::activeSimdTier()));
        fingerprint.set("compiler", build.compiler);
        fingerprint.set("build_type", E2E_BUILD_TYPE);
        fingerprint.set("asserts_enabled", build.asserts_enabled);
        doc.set("fingerprint", std::move(fingerprint));

        if (isCampaign(args.workload)) {
            doc = runCampaignWorkload(args, std::move(doc));
            doc.set("peak_rss_mb", peakRssMb());
        } else {
            doc = runServeWorkload(args, std::move(doc));
        }

        const std::string path = args.out_dir + "/result.json";
        std::ofstream os(path);
        doc.write(os, 1);
        os << '\n';
        if (!os.flush())
            throw std::runtime_error("cannot write " + path);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "e2e_bench: " << e.what() << '\n';
        return 1;
    }
}
