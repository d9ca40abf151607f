/**
 * @file
 * Coordinated-omission self-test of the benchmark's load generator.
 *
 * A stub server built from the public serve::net frame functions
 * answers each classify frame after a fixed service time S, one frame
 * at a time per connection, so one connection saturates at 1/S
 * requests per second. Over one connection:
 *
 *  - Below 1/S (evenly spaced arrivals), latency from the schedule and
 *    latency from the actual send both sit near S (median within 1 ms,
 *    p95 within 5 S).
 *  - Above 1/S, with a blocking client (one request in flight), the
 *    p99 from the schedule grows with run length — the queue grows —
 *    while latency from the actual send stays flat near S: the
 *    send-time measure hides the queue, the schedule measure does not.
 *  - The generator's own lateness stays within its bound.
 *
 * Exit status 0 when every check holds.
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hh"
#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"

namespace net = vibnn::serve::net;
using namespace perfbench;

namespace
{

constexpr double kServiceMs = 2.0;
constexpr double kLateBoundMs = 10.0;

class StubServer
{
  public:
    StubServer()
    {
        std::string error;
        listener_ = net::listenTcp("127.0.0.1", 0, error, &port_);
        if (!listener_.valid()) {
            std::fprintf(stderr, "stub listen failed: %s\n",
                         error.c_str());
            return;
        }
        acceptThread_ = std::thread([this] { acceptLoop(); });
    }

    ~StubServer()
    {
        stopping_ = true;
        listener_.shutdownBoth();
        acceptThread_.join();
        for (auto &conn : conns_)
            conn->sock.shutdownBoth();
        for (auto &conn : conns_)
            conn->thread.join();
    }

    StubServer(const StubServer &) = delete;
    StubServer &operator=(const StubServer &) = delete;

    std::uint16_t port() const { return port_; }

  private:
    struct Conn
    {
        net::Socket sock;
        std::thread thread;
    };

    void
    acceptLoop()
    {
        while (!stopping_) {
            std::string error;
            net::Socket sock = net::acceptTcp(listener_, error);
            if (!sock.valid())
                return;
            auto conn = std::make_unique<Conn>();
            conn->sock = std::move(sock);
            Conn *raw = conn.get();
            conn->thread = std::thread([raw] { serve(*raw); });
            conns_.push_back(std::move(conn));
        }
    }

    static void
    serve(Conn &conn)
    {
        const auto service = std::chrono::microseconds(
            static_cast<long>(kServiceMs * 1000.0));
        for (;;) {
            net::FrameType type;
            std::vector<std::uint8_t> payload;
            std::string error;
            if (!net::readFrame(conn.sock, type, payload, error))
                return;
            net::WireClassifyRequest request;
            if (!net::decodeClassifyRequest(payload.data(),
                                            payload.size(), request,
                                            error))
                return;
            // Busy-wait: a sleep's wake-up jitter would blur S.
            const auto until = std::chrono::steady_clock::now() + service;
            while (std::chrono::steady_clock::now() < until) {
            }
            net::WireClassifyResponse response;
            response.id = request.id;
            response.serverMicros = kServiceMs * 1000.0;
            const auto frame = net::encodeClassifyResponse(response);
            if (!net::writeAll(conn.sock, frame.data(), frame.size()))
                return;
        }
    }

    net::Socket listener_;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    // Touched only by the accept thread until the destructor joins it.
    std::vector<std::unique_ptr<Conn>> conns_;
};

std::vector<ScheduledRequest>
evenSchedule(double rate, double seconds)
{
    std::vector<ScheduledRequest> out;
    const float image[4] = {0.f, 1.f, 2.f, 3.f};
    const auto n = static_cast<std::size_t>(rate * seconds);
    for (std::size_t i = 0; i < n; ++i) {
        net::WireClassifyRequest wire;
        wire.id = i + 1;
        wire.count = 1;
        wire.dim = 4;
        wire.features.assign(image, image + 4);
        out.push_back({static_cast<std::int64_t>(i * 1e9 / rate), 0,
                       net::encodeClassifyRequest(wire)});
    }
    return out;
}

struct Summary
{
    double schedP50 = 0, schedP95 = 0, schedP99 = 0;
    double sendP50 = 0, sendP95 = 0, sendP99 = 0, lateP99 = 0;
    std::size_t ok = 0, total = 0;
};

Summary
drive(std::uint16_t port, double rate, double seconds,
      std::size_t max_in_flight)
{
    LoadOptions opts;
    opts.port = port;
    opts.connections = 1;
    opts.maxInFlightPerConnection = max_in_flight;
    opts.drainSeconds = 5.0;
    const LoadReport report =
        runOpenLoop(evenSchedule(rate, seconds), opts);
    Summary s;
    s.total = report.outcomes.size();
    s.ok = report.count(OutcomeStatus::Ok);
    s.schedP99 = quantile(report.scheduledLatenciesMs(), 0.99);
    s.schedP50 = quantile(report.scheduledLatenciesMs(), 0.50);
    s.schedP95 = quantile(report.scheduledLatenciesMs(), 0.95);
    s.sendP50 = quantile(report.sendLatenciesMs(), 0.50);
    s.sendP95 = quantile(report.sendLatenciesMs(), 0.95);
    s.sendP99 = quantile(report.sendLatenciesMs(), 0.99);
    s.lateP99 = quantile(report.lateMs, 0.99);
    std::printf("  rate %6.0f/s  %.1fs  in-flight %s: ok %zu/%zu  "
                "sched p50 %.2f p99 %.2f ms  send p99 %.2f ms  "
                "late p99 %.3f ms\n",
                rate, seconds, max_in_flight ? "1" : "unbounded", s.ok,
                s.total, s.schedP50, s.schedP99, s.sendP99, s.lateP99);
    return s;
}

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
}

} // namespace

int
main()
{
    StubServer stub;
    if (stub.port() == 0)
        return 1;
    const double capacity = 1000.0 / kServiceMs;
    // "Near S": median within a millisecond of S and p95 within a few
    // S. A shared host's scheduling stalls reach the last percent of a
    // one-second run; a queue growing through the run puts the tail
    // hundreds of ms out.
    auto near = [](double p50, double p95) {
        return p50 >= kServiceMs * 0.9 && p50 <= kServiceMs + 1.0 &&
            p95 <= 5 * kServiceMs;
    };

    std::printf("below capacity (%.0f/s = half of 1/S):\n",
                capacity / 2);
    for (const std::size_t in_flight : {std::size_t{0}, std::size_t{1}}) {
        const Summary s = drive(stub.port(), capacity / 2, 1.0, in_flight);
        check(s.ok == s.total, "every request answered");
        check(near(s.schedP50, s.schedP95),
              "latency from the schedule sits near the service time");
        check(near(s.sendP50, s.sendP95),
              "latency from the actual send sits near the service time");
        check(s.lateP99 <= kLateBoundMs,
              "generator lateness within its bound");
    }

    std::printf("above capacity (%.0f/s = 1.5/S), blocking client:\n",
                capacity * 1.5);
    const Summary shortRun = drive(stub.port(), capacity * 1.5, 0.5, 1);
    const Summary longRun = drive(stub.port(), capacity * 1.5, 1.5, 1);
    check(shortRun.ok == shortRun.total && longRun.ok == longRun.total,
          "every request answered");
    check(longRun.schedP99 > 1.5 * shortRun.schedP99,
          "p99 from the schedule grows with run length");
    check(near(shortRun.sendP50, shortRun.sendP95) &&
              near(longRun.sendP50, longRun.sendP95),
          "latency from the actual send stays flat near the service time");

    std::printf("above capacity, pipelined open loop:\n");
    const Summary pipeShort = drive(stub.port(), capacity * 1.5, 0.5, 0);
    const Summary pipeLong = drive(stub.port(), capacity * 1.5, 1.5, 0);
    check(pipeLong.schedP99 > 1.5 * pipeShort.schedP99,
          "p99 from the schedule grows with run length");
    check(pipeShort.lateP99 <= kLateBoundMs &&
              pipeLong.lateP99 <= kLateBoundMs,
          "generator stays on schedule while the server falls behind");

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST OK");
    return failures ? 1 : 0;
}
