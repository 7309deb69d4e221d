#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "analysis/result_json.h"
#include "bench_common.h"
#include "obs/trace.h"
#include "serve/http.h"
#include "serve/service.h"
#include "util/thread_annotations.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
namespace json = prosperity::json;
namespace obs = prosperity::obs;
namespace serve = prosperity::serve;
namespace util = prosperity::util;

/** Arrivals per second over the whole schedule: bench_serve's
 *  open-loop rate, so the two read against each other. */
constexpr double kRatePerSec = 50.0;
/** One request in kColdEvery simulates; the other 75% are warm, so
 *  the median of all requests sits among warm requests and the tail
 *  among cold ones. The 12.5 cold jobs/s are about 18% of the engine's
 *  measured capacity for this job mix at 4 threads (~70 jobs/s, see
 *  README.md), so cold latency is mostly service time, not queueing. */
constexpr std::size_t kColdEvery = 4;
/** Sender threads. Each request goes out from whichever sender is
 *  awake first at its due time, and the senders are pinned to
 *  different CPUs: a thread can wait tens of ms for a CPU that is busy
 *  elsewhere on a shared host, but two CPUs seldom stall at once. */
constexpr std::size_t kSenders = 2;
/** Polling threads; with the senders, 4 client threads (<= nproc on
 *  the 4-core reference host). */
constexpr std::size_t kPollers = 2;
constexpr double kPollIntervalMs = 2.0;
/** A request unanswered this long after it was due has failed. */
constexpr double kTimeoutMs = 10000.0;
/** A send later than this behind its due time means the generator
 *  fell behind: the run is invalid, not merely slow. Lateness is that
 *  of the first sender to claim the request. */
constexpr double kLateLimitMs = 50.0;

/** Mid-size Fig. 8 pairs and designs the jobs are drawn over. */
const char* const kPairs[][2] = {
    {"VGG16", "CIFAR10"}, {"ResNet18", "CIFAR10"}, {"SDT", "CIFAR10"}};
const char* const kDesigns[] = {"prosperity", "ptb", "eyeriss"};
constexpr std::size_t kDesignCount = 3;
constexpr std::size_t kCombos = 3 * kDesignCount;

const char* const kRunsRoute = "POST /v1/runs";
const char* const kJobsRoute = "GET /v1/jobs/:id";
const char* const kReportsRoute = "GET /v1/reports/:id";

std::string
jobBody(std::size_t combo, std::uint64_t job_seed)
{
    json::Value accelerator = json::Value::object();
    accelerator.set("name", kDesigns[combo % kDesignCount]);
    json::Value workload = json::Value::object();
    workload.set("model", kPairs[combo / kDesignCount][0]);
    workload.set("dataset", kPairs[combo / kDesignCount][1]);
    json::Value options = json::Value::object();
    options.set("seed", static_cast<double>(job_seed));
    json::Value body = json::Value::object();
    body.set("accelerator", std::move(accelerator));
    body.set("workload", std::move(workload));
    body.set("options", std::move(options));
    return body.dump(-1);
}

/** The seed-determined inputs of one schedule. */
struct Plan
{
    /** Distinct job bodies; the first kCombos are the warm pool. */
    std::vector<std::string> bodies;
    struct Request
    {
        std::size_t body = 0;
        bool warm = false;
    };
    std::vector<Request> requests;
};

Plan
makePlan(std::uint64_t seed, double seconds)
{
    // Job seeds stay below 2^31 so they round-trip through JSON.
    std::set<std::uint64_t> used;
    auto freshSeed = [&](std::uint64_t value) {
        std::uint64_t job_seed = mixSeed(value) & 0x7fffffffULL;
        while (!used.insert(job_seed).second)
            job_seed = (job_seed + 1) & 0x7fffffffULL;
        return job_seed;
    };

    Plan plan;
    const std::uint64_t warm_seed = freshSeed(seed);
    for (std::size_t c = 0; c < kCombos; ++c)
        plan.bodies.push_back(jobBody(c, warm_seed));

    const std::size_t n = std::max<std::size_t>(
        kColdEvery,
        static_cast<std::size_t>(std::llround(kRatePerSec * seconds)));
    const std::size_t cold_slot = mixSeed(seed ^ 0xc01dULL) % kColdEvery;
    const std::vector<std::size_t> warm_order =
        permutation(kCombos, mixSeed(seed + 1));
    const std::vector<std::size_t> cold_order =
        permutation(kCombos, mixSeed(seed + 2));
    std::size_t warm = 0;
    std::size_t cold = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Plan::Request request;
        if (i % kColdEvery == cold_slot) {
            plan.bodies.push_back(
                jobBody(cold_order[cold % kCombos],
                        freshSeed(seed * 0x100000001b3ULL + cold + 1)));
            request.body = plan.bodies.size() - 1;
            ++cold;
        } else {
            request.body = warm_order[warm % kCombos];
            request.warm = true;
            ++warm;
        }
        plan.requests.push_back(request);
    }
    return plan;
}

/** One service + server stack on an ephemeral loopback port. */
class Daemon
{
  public:
    Daemon(const std::string& store_dir, std::size_t threads, bool tracing)
    {
        serve::ServiceOptions service_options;
        service_options.threads = threads;
        service_options.store_dir = store_dir;
        service_options.tracing = tracing;
        service_ = std::make_unique<serve::SimulationService>(
            service_options);
        serve::HttpServerOptions server_options;
        // Keep-alive connections own a worker each: one per sender and
        // poller.
        server_options.threads = kSenders + kPollers;
        server_ = std::make_unique<serve::HttpServer>(
            server_options, [this](const serve::HttpRequest& request) {
                return service_->handle(request);
            });
        server_->start();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const { return server_->port(); }

  private:
    std::unique_ptr<serve::SimulationService> service_;
    std::unique_ptr<serve::HttpServer> server_;
};

/** Keep-alive client that wraps every call in a `bench` span and, in
 *  a traced pass, tags it with the pass's trace id. */
class Client
{
  public:
    Client(std::uint16_t port, std::uint64_t trace_id) : http_(port)
    {
        if (trace_id != 0)
            headers_ = {{"X-Prosperity-Trace", obs::formatTraceId(trace_id)}};
    }

    serve::HttpResponse call(const char* route, const std::string& method,
                             const std::string& target,
                             const std::string& body = "")
    {
        obs::ScopedSpan span("bench", route);
        return http_.request(method, target, body, "application/json",
                             headers_);
    }

  private:
    serve::HttpClient http_;
    serve::HttpClient::HeaderList headers_;
};

enum class Outcome { kPending, kOk, kRejected, kTimeout, kError };

const char*
outcomeName(Outcome outcome)
{
    switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kRejected: return "rejected";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kError: return "error";
    case Outcome::kPending: break;
    }
    return "pending";
}

/** Per-request record. Written by the generator until the request is
 *  handed to the pollers, then by exactly one poller at a time. */
struct RequestState
{
    std::uint64_t due_ns = 0;
    std::uint64_t done_ns = 0;
    double late_ms = 0.0;
    Outcome outcome = Outcome::kPending;
    std::string id;
    std::string report;
};

/** Submitted requests waiting for their job to finish. */
class Outstanding
{
  public:
    struct Entry
    {
        std::size_t index = 0;
        std::uint64_t next_poll_ns = 0;
    };

    void push(Entry entry)
    {
        {
            util::MutexLock lock(mutex_);
            queue_.push_back(entry);
        }
        cv_.notify_one();
    }

    /** Next entry, or nothing once closed and drained. */
    std::optional<Entry> pop()
    {
        util::UniqueLock lock(mutex_);
        while (queue_.empty() && !closed_)
            cv_.wait(lock);
        if (queue_.empty())
            return std::nullopt;
        Entry entry = queue_.front();
        queue_.pop_front();
        return entry;
    }

    void close()
    {
        {
            util::MutexLock lock(mutex_);
            closed_ = true;
        }
        cv_.notify_all();
    }

  private:
    util::Mutex mutex_;
    util::CondVar cv_;
    std::deque<Entry> queue_ GUARDED_BY(mutex_);
    bool closed_ GUARDED_BY(mutex_) = false;
};

std::string
statusOf(const serve::HttpResponse& response)
{
    return json::Value::parse(response.body).at("status").asString();
}

void
sleepUntil(std::uint64_t deadline_ns)
{
    const std::uint64_t now = nowNs();
    if (deadline_ns > now)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(deadline_ns - now));
}

std::uint64_t
msToNs(double ms)
{
    return static_cast<std::uint64_t>(ms * 1e6);
}

/** The CPU each sender is pinned to: one each, spread over the CPUs
 *  the process may use; -1 (not pinned) on fewer CPUs than senders. */
std::vector<int>
senderCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> allowed;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                allowed.push_back(cpu);
    std::vector<int> cpus(kSenders, -1);
    if (allowed.size() >= kSenders)
        for (std::size_t k = 0; k < kSenders; ++k)
            cpus[k] = allowed[k * allowed.size() / kSenders];
    return cpus;
}

/** Pin the calling thread to `cpu`, best effort; -1 leaves it free. */
void
pinTo(int cpu)
{
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/** Submit `body` and wait for its report over one connection (the
 *  priming path; not timed). */
std::string
submitAndFetch(Client& client, const std::string& body)
{
    const serve::HttpResponse submitted =
        client.call(kRunsRoute, "POST", "/v1/runs", body);
    if (submitted.status != 200 && submitted.status != 202)
        throw std::runtime_error("priming submit failed: " +
                                 submitted.body);
    const std::string id =
        json::Value::parse(submitted.body).at("id").asString();
    for (;;) {
        const std::string status = statusOf(
            client.call(kJobsRoute, "GET", "/v1/jobs/" + id));
        if (status == "done")
            break;
        if (status == "failed")
            throw std::runtime_error("priming job " + id + " failed");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return client.call(kReportsRoute, "GET", "/v1/reports/" + id).body;
}

} // namespace

std::uint64_t
serveSetup(const std::string& work_dir, std::size_t threads)
{
    const std::string store = work_dir + "/setup_store";
    fs::remove_all(store);
    std::uint64_t ready_ns = 0;
    {
        Daemon daemon(store, threads, false);
        Client client(daemon.port(), 0);
        if (client.call("GET /v1/stats", "GET", "/v1/stats").status != 200)
            throw std::runtime_error("daemon did not answer /v1/stats");
        ready_ns = nowNs();
    }
    fs::remove_all(store);
    return ready_ns;
}

json::Value
runServeLoad(const ServeLoadOptions& options)
{
    const Plan plan = makePlan(options.seed, options.seconds);
    const std::string store = options.work_dir + "/store";
    fs::remove_all(store);

    // Priming: a first daemon publishes the warm pool to the store, so
    // the measured daemon answers warm keys from disk on first touch.
    // Later repeats never reach the engine: the service answers a
    // known run id from its own records before it submits.
    std::vector<std::string> primed(kCombos);
    {
        Daemon primer(store, options.threads, false);
        Client client(primer.port(), 0);
        for (std::size_t c = 0; c < kCombos; ++c)
            primed[c] = submitAndFetch(client, plan.bodies[c]);
    }

    std::optional<TracedPass> traced;
    if (options.traced)
        traced.emplace();
    const std::uint64_t trace_id = traced ? traced->traceId() : 0;
    const obs::TraceContext context{trace_id, 0};

    const std::size_t n = plan.requests.size();
    std::vector<RequestState> states(n);
    Outstanding outstanding;
    std::atomic<std::size_t> completed{0};
    std::size_t backlog_at_end = 0;
    json::Value stats_doc;
    std::uint64_t t0 = 0;
    double cpu0 = 0.0;
    double cpu_s = 0.0;
    {
        Daemon daemon(store, options.threads, options.traced);
        const double interval_ns = 1e9 / kRatePerSec;
        const std::uint64_t poll_ns = msToNs(kPollIntervalMs);
        const std::uint64_t timeout_ns = msToNs(kTimeoutMs);

        auto finish = [&](RequestState& state, Outcome outcome) {
            state.outcome = outcome;
            state.done_ns = nowNs();
            completed.fetch_add(1, std::memory_order_relaxed);
        };
        auto fetchReport = [&](Client& client, RequestState& state) {
            const serve::HttpResponse report = client.call(
                kReportsRoute, "GET", "/v1/reports/" + state.id);
            state.report = report.body;
            finish(state, report.status == 200 ? Outcome::kOk
                                               : Outcome::kError);
        };

        auto poller = [&] {
            obs::ScopedTraceContext scope(context);
            Client client(daemon.port(), trace_id);
            while (std::optional<Outstanding::Entry> entry =
                       outstanding.pop()) {
                sleepUntil(entry->next_poll_ns);
                RequestState& state = states[entry->index];
                try {
                    const serve::HttpResponse polled = client.call(
                        kJobsRoute, "GET", "/v1/jobs/" + state.id);
                    const std::string status =
                        polled.status == 200 ? statusOf(polled) : "failed";
                    if (status == "done") {
                        fetchReport(client, state);
                    } else if (status == "failed") {
                        finish(state, Outcome::kError);
                    } else if (nowNs() - state.due_ns > timeout_ns) {
                        finish(state, Outcome::kTimeout);
                    } else {
                        entry->next_poll_ns = nowNs() + poll_ns;
                        outstanding.push(*entry);
                    }
                } catch (const std::exception&) {
                    finish(state, Outcome::kError);
                }
            }
        };

        // Each sender waits for the due time of the next unclaimed
        // request and sends it if no other sender claimed it first.
        std::atomic<std::size_t> cursor{0};
        auto sender = [&](Client& client, int cpu) {
            pinTo(cpu);
            obs::ScopedTraceContext scope(context);
            for (;;) {
                std::size_t i = cursor.load();
                if (i >= n)
                    break;
                RequestState& state = states[i];
                sleepUntil(state.due_ns);
                if (!cursor.compare_exchange_strong(i, i + 1))
                    continue;
                state.late_ms =
                    static_cast<double>(nowNs() - state.due_ns) * 1e-6;
                try {
                    const serve::HttpResponse submitted = client.call(
                        kRunsRoute, "POST", "/v1/runs",
                        plan.bodies[plan.requests[i].body]);
                    if (submitted.status == 429) {
                        finish(state, Outcome::kRejected);
                        continue;
                    }
                    if (submitted.status != 200 && submitted.status != 202) {
                        finish(state, Outcome::kError);
                        continue;
                    }
                    const json::Value ack =
                        json::Value::parse(submitted.body);
                    state.id = ack.at("id").asString();
                    const std::string status = ack.at("status").asString();
                    if (status == "done")
                        fetchReport(client, state);
                    else if (status == "failed")
                        finish(state, Outcome::kError);
                    else
                        outstanding.push({i, nowNs() + poll_ns});
                } catch (const std::exception&) {
                    finish(state, Outcome::kError);
                }
            }
        };

        std::vector<std::unique_ptr<Client>> sender_clients;
        for (std::size_t k = 0; k < kSenders; ++k)
            sender_clients.push_back(
                std::make_unique<Client>(daemon.port(), trace_id));
        std::vector<std::thread> senders;
        std::vector<std::thread> pollers;
        // Joins the senders, then closes the queue and joins the
        // pollers, on every way out of this scope, exceptions included.
        struct Joiner
        {
            Outstanding& queue;
            std::vector<std::thread>& senders;
            std::vector<std::thread>& pollers;
            void join()
            {
                for (std::thread& t : senders)
                    if (t.joinable())
                        t.join();
                queue.close();
                for (std::thread& t : pollers)
                    if (t.joinable())
                        t.join();
            }
            ~Joiner() { join(); }
        } joiner{outstanding, senders, pollers};

        t0 = nowNs() + msToNs(5.0); // let the threads come up first
        for (std::size_t i = 0; i < n; ++i)
            states[i].due_ns = t0 + static_cast<std::uint64_t>(
                                        static_cast<double>(i) * interval_ns);
        cpu0 = cpuSeconds();
        for (std::size_t p = 0; p < kPollers; ++p)
            pollers.emplace_back(poller);
        const std::vector<int> cpus = senderCpus();
        for (std::size_t k = 0; k < kSenders; ++k)
            senders.emplace_back(sender, std::ref(*sender_clients[k]),
                                 cpus[k]);
        for (std::thread& t : senders)
            t.join();
        backlog_at_end = n - completed.load(std::memory_order_relaxed);
        joiner.join();
        cpu_s = cpuSeconds() - cpu0;

        obs::ScopedTraceContext scope(context);
        const serve::HttpResponse stats =
            sender_clients[0]->call("GET /v1/stats", "GET", "/v1/stats");
        stats_doc = json::Value::parse(stats.body);
    }
    // Before the offline check below, which runs every job again and
    // keeps all results. The priming daemon ran a subset of the same
    // jobs, so its footprint does not exceed the measured one's.
    const double peak_rss_mb = peakRssMb();

    json::Value trace_doc;
    if (traced)
        trace_doc = traced->finish(options.trace_path);

    // Output check: every report body must equal what the service
    // would render for an offline SimulationEngine run of the job.
    std::vector<prosperity::SimulationJob> jobs;
    jobs.reserve(plan.bodies.size());
    for (const std::string& body : plan.bodies)
        jobs.push_back(prosperity::simulationJobFromJson(
            json::Value::parse(body), "benchmark run"));
    prosperity::EngineOptions engine_options;
    engine_options.threads = options.threads;
    prosperity::SimulationEngine offline(engine_options);
    const std::vector<prosperity::RunResult> results = offline.runBatch(jobs);
    std::vector<std::string> expected;
    expected.reserve(results.size());
    json::Value labels = json::Value::object();
    for (std::size_t j = 0; j < results.size(); ++j) {
        expected.push_back(
            serve::HttpResponse::json(
                200, prosperity::runResultToJson(results[j]))
                .body);
        labels.set(results[j].accelerator, jobs[j].accelerator.name);
    }

    std::size_t wrong_bodies = 0;
    for (std::size_t c = 0; c < kCombos; ++c)
        if (primed[c] != expected[c])
            ++wrong_bodies;

    std::uint64_t last_done = t0;
    json::Value latency_ms = json::Value::array();
    json::Value late_ms = json::Value::array();
    json::Value warm = json::Value::array();
    json::Value outcome = json::Value::array();
    for (std::size_t i = 0; i < n; ++i) {
        RequestState& state = states[i];
        if (state.outcome == Outcome::kOk &&
            state.report != expected[plan.requests[i].body]) {
            state.outcome = Outcome::kError;
            ++wrong_bodies;
        }
        last_done = std::max(last_done, state.done_ns);
        latency_ms.push(static_cast<double>(state.done_ns - state.due_ns) *
                        1e-6);
        late_ms.push(state.late_ms);
        warm.push(plan.requests[i].warm);
        outcome.push(outcomeName(state.outcome));
    }

    json::Value out = json::Value::object();
    out.set("traced", options.traced);
    out.set("rate_per_s", kRatePerSec);
    out.set("late_limit_ms", kLateLimitMs);
    out.set("poll_interval_ms", kPollIntervalMs);
    out.set("timeout_ms", kTimeoutMs);
    out.set("requests", n);
    out.set("wall_s", static_cast<double>(last_done - t0) * 1e-9);
    out.set("cpu_s", cpu_s);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("latency_ms", std::move(latency_ms));
    out.set("late_ms", std::move(late_ms));
    out.set("warm", std::move(warm));
    out.set("outcome", std::move(outcome));
    out.set("backlog_at_end", backlog_at_end);
    out.set("wrong_bodies", wrong_bodies);
    out.set("stats", std::move(stats_doc));
    out.set("labels", std::move(labels));
    if (traced)
        out.set("trace", std::move(trace_doc));
    return out;
}

} // namespace e2ebench
