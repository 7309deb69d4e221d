/**
 * @file
 * Tests for the dependency-free HTTP/1.1 layer: loopback round trips,
 * keep-alive connection reuse, concurrent clients, and the
 * malformed-request surface (bad request lines, oversized bodies,
 * Expect: 100-continue), and where a worker runs while it serves a
 * connection — all against a live server on an ephemeral port, no
 * mocks.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "serve/http.h"
#include "util/json.h"
#include "util/socket.h"

namespace prosperity::serve {
namespace {

/** Echo server: answers with a JSON description of the request. */
HttpResponse
echoHandler(const HttpRequest& request)
{
    json::Value root = json::Value::object();
    root.set("method", request.method);
    root.set("path", request.path);
    root.set("body", request.body);
    root.set("format", request.queryValue("format", "(none)"));
    return HttpResponse::json(200, root);
}

HttpServerOptions
testOptions()
{
    HttpServerOptions options;
    options.port = 0; // ephemeral
    options.threads = 2;
    return options;
}

/** requestsServed() increments *after* the response bytes are written,
 *  so a client can observe its response before the counter moves —
 *  give the worker a moment to catch up before asserting. */
void
expectRequestsServed(const HttpServer& server, std::uint64_t expected)
{
    for (int i = 0; i < 100 && server.requestsServed() != expected; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.requestsServed(), expected);
}

TEST(HttpServer, StartStopAssignsEphemeralPort)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    EXPECT_NE(server.port(), 0);
    EXPECT_TRUE(server.running());
    server.stop();
    EXPECT_FALSE(server.running());
    // stop() is idempotent.
    server.stop();
}

TEST(HttpServer, GetRoundTrip)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const HttpResponse response =
        client.get("/hello/world?format=csv&x=1");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "application/json");
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("method").asString(), "GET");
    EXPECT_EQ(body.at("path").asString(), "/hello/world");
    EXPECT_EQ(body.at("format").asString(), "csv");
}

TEST(HttpServer, PostBodyRoundTrip)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const std::string payload = "{\"answer\": 42}";
    const HttpResponse response = client.post("/submit", payload);
    EXPECT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("method").asString(), "POST");
    EXPECT_EQ(body.at("body").asString(), payload);
}

TEST(HttpServer, PercentDecodingInPathAndQuery)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const HttpResponse response =
        client.get("/v1/jobs/a%20b?format=c%2Bsv");
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("path").asString(), "/v1/jobs/a b");
    EXPECT_EQ(body.at("format").asString(), "c+sv");
}

TEST(HttpServer, KeepAliveReusesOneConnection)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(client.get("/ping").status, 200);
    expectRequestsServed(server, 5);
    EXPECT_EQ(server.connectionsAccepted(), 1u);
}

TEST(HttpServer, HandlerStatusAndErrorsPassThrough)
{
    HttpServer server(testOptions(), [](const HttpRequest& request) {
        if (request.path == "/missing")
            return HttpResponse::error(404, "no such thing");
        if (request.path == "/throws")
            throw std::runtime_error("handler exploded");
        return HttpResponse::text(200, "ok");
    });
    server.start();
    HttpClient client(server.port());

    const HttpResponse missing = client.get("/missing");
    EXPECT_EQ(missing.status, 404);
    const json::Value error = json::Value::parse(missing.body);
    EXPECT_EQ(error.at("error").at("message").asString(),
              "no such thing");

    // A throwing handler becomes a structured 500, and the server
    // (plus the connection) survives it.
    const HttpResponse thrown = client.get("/throws");
    EXPECT_EQ(thrown.status, 500);
    EXPECT_NE(json::Value::parse(thrown.body)
                  .at("error")
                  .at("message")
                  .asString()
                  .find("handler exploded"),
              std::string::npos);
    EXPECT_EQ(client.get("/fine").status, 200);
}

TEST(HttpServer, ConcurrentClients)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();

    constexpr int kThreads = 4;
    constexpr int kRequests = 25;
    std::vector<std::thread> clients;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        clients.emplace_back([&, t] {
            HttpClient client(server.port());
            for (int i = 0; i < kRequests; ++i) {
                const HttpResponse response = client.post(
                    "/job", std::to_string(t * kRequests + i));
                if (response.status != 200)
                    ++failures[t];
            }
        });
    for (std::thread& thread : clients)
        thread.join();
    for (const int f : failures)
        EXPECT_EQ(f, 0);
    expectRequestsServed(server,
                         static_cast<std::uint64_t>(kThreads) *
                             kRequests);
}

/** Raw-socket request helper for malformed-input tests the HttpClient
 *  refuses to produce. Returns everything the server sends back. */
std::string
rawExchange(std::uint16_t port, const std::string& wire)
{
    net::Socket sock(net::connectLoopback(port));
    EXPECT_TRUE(net::writeAll(sock.fd(), wire.data(), wire.size()));
    std::string reply;
    char chunk[4096];
    for (;;) {
        const std::size_t n =
            net::readSome(sock.fd(), chunk, sizeof(chunk));
        if (n == 0)
            break;
        reply.append(chunk, n);
    }
    return reply;
}

TEST(HttpServer, MalformedRequestLineIs400)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string reply =
        rawExchange(server.port(), "NONSENSE\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 17, "HTTP/1.1 400 Bad "), 0) << reply;
}

TEST(HttpServer, OversizedBodyIs413)
{
    HttpServerOptions options = testOptions();
    options.max_body_bytes = 64;
    HttpServer server(options, echoHandler);
    server.start();
    const std::string reply = rawExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 413"), 0) << reply;
}

TEST(HttpServer, Expect100ContinueGetsInterimResponse)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    // curl sends this for larger POST bodies and stalls without the
    // interim reply.
    const std::string reply = rawExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
        "Expect: 100-continue\r\nConnection: close\r\n\r\nhi");
    EXPECT_EQ(reply.compare(0, 25, "HTTP/1.1 100 Continue\r\n\r\n"), 0)
        << reply;
    EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(reply.find("\"body\": \"hi\""), std::string::npos);
}

TEST(HttpServer, StopReturnsWithAnIdleKeepAliveConnectionOpen)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    // A client that made a request and then went idle must not be
    // able to hang shutdown: the worker's read polls the stop flag.
    HttpClient client(server.port());
    ASSERT_EQ(client.get("/ping").status, 200);
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              2000);
}

TEST(HttpServer, IdleConnectionsAreReaped)
{
    HttpServerOptions options = testOptions();
    options.read_timeout_ms = 200;
    HttpServer server(options, echoHandler);
    server.start();
    // A connection that never sends a request is closed after the
    // read timeout (EOF on our end), freeing its worker for others.
    net::Socket idle(net::connectLoopback(server.port()));
    char byte = 0;
    EXPECT_EQ(net::readSome(idle.fd(), &byte, 1), 0u);
    // The pool is healthy afterwards.
    HttpClient client(server.port());
    EXPECT_EQ(client.get("/ping").status, 200);
}

TEST(HttpServer, TransferEncodingIsRejected)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string reply = rawExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 501"), 0) << reply;
}

/** Answers with the serving worker's thread id and the one CPU it may
 *  run on (-1 when it may run on several). */
HttpResponse
affinityHandler(const HttpRequest&)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    pthread_getaffinity_np(pthread_self(), sizeof(set), &set);
    int only = -1;
    if (CPU_COUNT(&set) == 1)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                only = cpu;
    json::Value root = json::Value::object();
    root.set("tid", static_cast<double>(::syscall(SYS_gettid)));
    root.set("cpu", static_cast<double>(only));
    return HttpResponse::json(200, root);
}

TEST(HttpServer, WorkerRunsOnItsClientsCpuUntilTheConnectionEnds)
{
#ifndef SO_INCOMING_CPU
    GTEST_SKIP() << "no SO_INCOMING_CPU on this platform";
#endif
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 4; ++cpu)
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    if (cpus.size() < 2)
        GTEST_SKIP() << "needs at least two CPUs";

    HttpServer server(testOptions(), affinityHandler);
    server.start();
    for (const int cpu : cpus) {
        std::vector<json::Value> answers;
        std::thread client_thread([&] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (pthread_setaffinity_np(pthread_self(), sizeof(one),
                                       &one) != 0)
                return;
            HttpClient client(server.port());
            for (int i = 0; i < 3; ++i)
                answers.push_back(
                    json::Value::parse(client.get("/where").body));
        }); // the client's connection closes as the thread ends
        client_thread.join();
        ASSERT_EQ(answers.size(), 3u) << "client could not pin to " << cpu;
        for (const json::Value& answer : answers)
            EXPECT_EQ(answer.at("cpu").asNumber(), cpu);

        // With the connection gone the worker may run anywhere again.
        const auto tid = static_cast<pid_t>(answers[0].at("tid").asNumber());
        cpu_set_t worker;
        for (int i = 0; i < 500; ++i) {
            CPU_ZERO(&worker);
            ASSERT_EQ(sched_getaffinity(tid, sizeof(worker), &worker), 0);
            if (CPU_EQUAL(&worker, &allowed))
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        EXPECT_TRUE(CPU_EQUAL(&worker, &allowed))
            << "worker " << tid << " kept " << CPU_COUNT(&worker)
            << " of " << CPU_COUNT(&allowed) << " CPUs";
    }
}

} // namespace
} // namespace prosperity::serve
