#include "engine.h"

#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prosperity {

namespace {

/**
 * Engine instruments, resolved once against the global registry.
 * Recording only accumulates into preallocated atomics; nothing reads
 * these values back into the engine, so simulation output is
 * provably independent of them (see docs/OBSERVABILITY.md).
 */
struct EngineMetrics
{
    obs::Counter& jobs_simulated;
    obs::Counter& jobs_memo_hit;
    obs::Counter& jobs_store_hit;
    obs::Counter& jobs_inflight_dedup;
    obs::Histogram& queue_wait;
    obs::Histogram& simulate_seconds;
    obs::Gauge& queue_depth;
    obs::Gauge& in_flight;
    obs::Gauge& threads;
};

EngineMetrics&
engineMetrics()
{
    static constexpr const char* kJobsName = "prosperity_engine_jobs_total";
    static constexpr const char* kJobsHelp =
        "Engine jobs by outcome (simulated, memo_hit, store_hit, "
        "inflight_dedup)";
    static EngineMetrics metrics{
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "simulated"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "memo_hit"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "store_hit"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "inflight_dedup"}}),
        obs::MetricsRegistry::global().histogram(
            "prosperity_engine_queue_wait_seconds",
            "Async submit(): enqueue to worker dequeue",
            obs::latencyBuckets()),
        obs::MetricsRegistry::global().histogram(
            "prosperity_engine_simulate_seconds",
            "Wall time of one simulation (sum == busy seconds)",
            obs::latencyBuckets()),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_queue_depth",
            "Async tasks enqueued but not yet claimed by a worker"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_in_flight",
            "Simulations currently executing"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_threads",
            "Configured worker-pool size"),
    };
    return metrics;
}

} // namespace

bool
operator==(const AcceleratorSpec& a, const AcceleratorSpec& b)
{
    return a.name == b.name &&
           a.params.entries() == b.params.entries();
}

SimulationEngine::SimulationEngine(EngineOptions options)
    : options_(options)
{
    if (options_.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.threads = hw == 0 ? 1 : hw;
    }
    engineMetrics().threads.set(static_cast<double>(options_.threads));
}

SimulationEngine::~SimulationEngine()
{
    // Detach the pool under the lock, join outside it: workers need
    // mutex_ to drain, and joined threads can't touch workers_ again.
    std::vector<std::thread> workers;
    {
        util::MutexLock lock(mutex_);
        stopping_ = true;
        workers.swap(workers_);
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers)
        worker.join();
}

std::string
SimulationEngine::jobKey(const SimulationJob& job)
{
    // The registry resolves names case-insensitively; normalize so
    // "PTB" and "ptb" dedupe and memoize as the same design. The
    // workload name covers (model, dataset); the profile fields cover
    // user-customized activation statistics on top of it.
    std::ostringstream os;
    os.precision(17);
    const ActivationProfile& p = job.workload.profile;
    os << AcceleratorRegistry::canonicalName(job.accelerator.name) << '{'
       << job.accelerator.params.fingerprint() << "}|"
       << job.workload.name() << '|' << p.bit_density << ','
       << p.cluster_fraction << ',' << p.bank_size << ','
       << p.subset_drop_prob << ',' << p.temporal_repeat << ','
       << p.union_prob << ',' << p.noise_insert_prob << '|'
       << job.options.seed << '|' << job.options.keep_layer_records;
    return os.str();
}

RunResult
SimulationEngine::run(const SimulationJob& job)
{
    return submit(job).get();
}

void
SimulationEngine::ensureWorkersLocked()
{
    if (!workers_.empty())
        return;
    workers_.reserve(options_.threads);
    for (std::size_t w = 0; w < options_.threads; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

void
SimulationEngine::workerLoop()
{
    for (;;) {
        AsyncTask task;
        {
            util::UniqueLock lock(mutex_);
            while (!stopping_ && queue_.empty())
                queue_cv_.wait(lock);
            // On shutdown, drain the queue first: every accepted
            // submit() still gets its result.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        EngineMetrics& metrics = engineMetrics();
        metrics.queue_depth.sub(1.0);
        const std::uint64_t dequeued_ns = obs::monotonicNanos();
        metrics.queue_wait.observe(
            obs::elapsedSeconds(task.enqueued_ns, dequeued_ns));

        try {
            RunResult result;
            std::vector<std::promise<RunResult>> waiters;
            {
                // Adopt the submitter's trace for everything the task
                // does; the scope ends (and the span buffer drains)
                // before any promise resolves, so a client that just
                // observed "done" can already collect the full trace.
                obs::ScopedTraceContext trace_scope(task.trace_context);
                obs::emitSpan("engine", "queue_wait", task.enqueued_ns,
                              dequeued_ns);

                // Memory cache missed at submit time; the second-level
                // cache (e.g. the on-disk ResultStore) gets its chance
                // here, off the caller's thread.
                std::shared_ptr<ResultCache> second_level;
                {
                    util::MutexLock lock(mutex_);
                    second_level = second_level_;
                }
                bool from_second_level = false;
                if (second_level &&
                    second_level->fetch(task.key, &result))
                    from_second_level = true;

                if (from_second_level) {
                    metrics.jobs_store_hit.add();
                } else {
                    AcceleratorRegistry& registry =
                        AcceleratorRegistry::instance();
                    std::unique_ptr<Accelerator> accel = registry.create(
                        task.job.accelerator.name,
                        task.job.accelerator.params);
                    obs::GaugeGuard busy(metrics.in_flight);
                    obs::ScopedSpan span("engine", "simulate");
                    if (span.active())
                        span.setDetail(task.job.accelerator.name + " / " +
                                       task.job.workload.name());
                    const std::uint64_t start_ns = obs::monotonicNanos();
                    result = runWorkload(*accel, task.job.workload,
                                         task.job.options);
                    metrics.simulate_seconds.observe(obs::elapsedSeconds(
                        start_ns, obs::monotonicNanos()));
                    metrics.jobs_simulated.add();
                }

                {
                    util::MutexLock lock(mutex_);
                    if (from_second_level)
                        ++cache_hits_;
                    else
                        ++cache_misses_;
                    cache_.emplace(task.key, result);
                    const auto it = inflight_.find(task.key);
                    if (it != inflight_.end()) {
                        waiters = std::move(it->second);
                        inflight_.erase(it);
                    }
                }
                if (!from_second_level && second_level)
                    second_level->publish(task.key, result);
            }
            for (std::promise<RunResult>& waiter : waiters)
                waiter.set_value(result);
            task.promise.set_value(std::move(result));
        } catch (...) {
            const std::exception_ptr error = std::current_exception();
            std::vector<std::promise<RunResult>> waiters;
            {
                util::MutexLock lock(mutex_);
                const auto it = inflight_.find(task.key);
                if (it != inflight_.end()) {
                    waiters = std::move(it->second);
                    inflight_.erase(it);
                }
            }
            for (std::promise<RunResult>& waiter : waiters)
                waiter.set_exception(error);
            task.promise.set_exception(error);
        }
    }
}

std::future<RunResult>
SimulationEngine::submit(const SimulationJob& job)
{
    std::promise<RunResult> promise;
    std::future<RunResult> future = promise.get_future();
    std::string key = jobKey(job);
    EngineMetrics& metrics = engineMetrics();
    {
        util::UniqueLock lock(mutex_);
        const auto cached = cache_.find(key);
        if (cached != cache_.end()) {
            ++cache_hits_;
            metrics.jobs_memo_hit.add();
            promise.set_value(cached->second);
            return future;
        }
        const auto computing = inflight_.find(key);
        if (computing != inflight_.end()) {
            ++inflight_dedups_;
            metrics.jobs_inflight_dedup.add();
            computing->second.push_back(std::move(promise));
            return future;
        }
        inflight_.emplace(key, std::vector<std::promise<RunResult>>{});
        queue_.push_back(AsyncTask{job, std::move(key),
                                   std::move(promise),
                                   obs::monotonicNanos(),
                                   obs::currentTraceContext()});
        metrics.queue_depth.add(1.0);
        ensureWorkersLocked();
    }
    queue_cv_.notify_one();
    return future;
}

std::vector<RunResult>
SimulationEngine::runBatch(const std::vector<SimulationJob>& jobs)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    // Validate every design point up front so a typo fails fast instead
    // of surfacing from a worker thread mid-batch.
    for (const SimulationJob& job : jobs)
        if (!registry.contains(job.accelerator.name))
            registry.create(job.accelerator.name); // throws with details

    std::vector<std::future<RunResult>> futures;
    futures.reserve(jobs.size());
    for (const SimulationJob& job : jobs)
        futures.push_back(submit(job));

    // Wait for every job before reporting a failure, so a throwing
    // batch leaves none of its jobs still running.
    std::vector<RunResult> results;
    results.reserve(jobs.size());
    std::exception_ptr first_error;
    for (std::future<RunResult>& future : futures) {
        try {
            results.push_back(future.get());
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

std::size_t
SimulationEngine::cacheSize() const
{
    util::MutexLock lock(mutex_);
    return cache_.size();
}

std::size_t
SimulationEngine::queueDepth() const
{
    util::MutexLock lock(mutex_);
    return queue_.size();
}

std::size_t
SimulationEngine::cacheHits() const
{
    util::MutexLock lock(mutex_);
    return cache_hits_;
}

EngineStats
SimulationEngine::stats() const
{
    std::shared_ptr<ResultCache> second_level;
    EngineStats stats;
    {
        util::MutexLock lock(mutex_);
        stats.entries = cache_.size();
        stats.hits = cache_hits_;
        stats.misses = cache_misses_;
        stats.in_flight_dedups = inflight_dedups_;
        second_level = second_level_;
    }
    // health() outside mutex_: implementations take their own lock and
    // may be mid-fetch on a worker that also wants mutex_.
    if (second_level) {
        const ResultCacheHealth health = second_level->health();
        stats.store_corrupt = health.corrupt;
        stats.store_truncated = health.truncated;
        stats.store_version_mismatch = health.version_mismatch;
    }
    return stats;
}

void
SimulationEngine::setResultCache(std::shared_ptr<ResultCache> cache)
{
    util::MutexLock lock(mutex_);
    second_level_ = std::move(cache);
}

void
SimulationEngine::clearCache()
{
    util::MutexLock lock(mutex_);
    cache_.clear();
}

} // namespace prosperity
