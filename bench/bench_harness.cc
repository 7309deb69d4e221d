#include "bench_harness.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bitmatrix/simd_dispatch.h"
#include "util/build_config.h"
#include "util/json.h"

namespace prosperity::bench {

namespace {

/** JSON string escape (control chars, quotes, backslashes). */
std::string
jsonEscape(const std::string& s)
{
    return json::escape(s);
}

/** The first "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

std::string
jsonNumber(double v)
{
    // Locale-independent and round-trip exact, so BENCH_*.json files
    // are byte-stable across environments (satellite of the campaign
    // redesign; shared with campaign reports and CSV export).
    return json::formatDouble(v);
}

void
writeParams(std::ostream& os, const ParamList& params)
{
    os << '{';
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << jsonEscape(params[i].first) << "\":\""
           << jsonEscape(params[i].second) << '"';
    }
    os << '}';
}

} // namespace

double
CaseResult::itemsPerSec() const
{
    return (items > 0.0 && median_ns > 0.0) ? items / (median_ns * 1e-9)
                                            : 0.0;
}

double
nowNs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

void
Harness::setConfig(const std::string& key, const std::string& value)
{
    for (auto& entry : config_) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    config_.emplace_back(key, value);
}

void
Harness::setHostFingerprint()
{
    setConfig("cpu_model", cpuModel());
    setConfig("cores", std::to_string(std::thread::hardware_concurrency()));
    setConfig("simd_tier", simdTierName(activeSimdTier()));
    setConfig("compiler", util::buildConfig().compiler);
    setConfig("build_type", PROSPERITY_BENCH_BUILD_TYPE);
}

CaseResult
Harness::run(const std::string& name, const std::string& stage,
             ParamList params, const CaseOptions& opts,
             const std::function<std::uint64_t()>& fn)
{
    CaseResult r;
    r.name = name;
    r.stage = stage;
    r.params = std::move(params);
    r.reps = std::max<std::size_t>(1, opts.reps);
    r.warmup = opts.warmup;
    r.items = opts.items;

    for (std::size_t i = 0; i < r.warmup; ++i)
        (void)fn();

    std::vector<double> samples(r.reps);
    for (std::size_t i = 0; i < r.reps; ++i) {
        const double t0 = nowNs();
        const std::uint64_t value = fn();
        samples[i] = nowNs() - t0;
        // The first repetition's value is the case checksum; XOR-ing
        // all reps would cancel to 0 for even rep counts and void the
        // cross-implementation identity check.
        if (i == 0)
            r.checksum = value;
    }

    std::sort(samples.begin(), samples.end());
    r.best_ns = samples.front();
    r.median_ns = samples[samples.size() / 2];
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    r.mean_ns = sum / static_cast<double>(samples.size());

    std::cout << "  " << std::left << std::setw(40) << r.name
              << " median " << std::right << std::setw(12)
              << jsonNumber(r.median_ns) << " ns";
    if (r.items > 0.0)
        std::cout << "  (" << jsonNumber(r.itemsPerSec() / 1e6)
                  << " M items/s)";
    std::cout << '\n';

    results_.push_back(r);
    return r;
}

void
Harness::writeJson(std::ostream& os) const
{
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"suite\": \"" << jsonEscape(suite_) << "\",\n";
    os << "  \"time_unit\": \"ns\",\n";
    os << "  \"config\": ";
    writeParams(os, config_);
    os << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
        const CaseResult& r = results_[i];
        os << "    {\"name\": \"" << jsonEscape(r.name) << "\", "
           << "\"stage\": \"" << jsonEscape(r.stage) << "\", "
           << "\"params\": ";
        writeParams(os, r.params);
        os << ", \"reps\": " << r.reps << ", \"warmup\": " << r.warmup
           << ", \"best_ns\": " << jsonNumber(r.best_ns)
           << ", \"median_ns\": " << jsonNumber(r.median_ns)
           << ", \"mean_ns\": " << jsonNumber(r.mean_ns)
           << ", \"items\": " << jsonNumber(r.items)
           << ", \"items_per_sec\": " << jsonNumber(r.itemsPerSec())
           << ", \"checksum\": \"0x";
        os << std::hex << r.checksum << std::dec << "\"}";
        os << (i + 1 < results_.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

bool
Harness::writeJsonFile(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeJson(os);
    return static_cast<bool>(os.flush());
}

} // namespace prosperity::bench
