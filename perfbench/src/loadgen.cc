#include "loadgen.hh"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "common/rng.hh"
#include "serve/net/socket.hh"

namespace perfbench
{

namespace net = vibnn::serve::net;

namespace
{

struct Connection
{
    net::Socket sock;
    /** Schedule indices queued but not fully written, in order. */
    std::deque<std::size_t> queue;
    /** Bytes of queue.front() already written. */
    std::size_t offset = 0;
    /** Requests whose first byte was sent (writer-owned). */
    std::uint64_t started = 0;
    /** Responses read (reader-owned, read by the writer). */
    std::atomic<std::uint64_t> answered{0};
    /** Either thread saw the connection fail. */
    std::atomic<bool> dead{false};
};

timespec
toTimespec(std::int64_t ns)
{
    ns = std::max<std::int64_t>(ns, 0);
    timespec ts;
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    return ts;
}

} // namespace

std::size_t
LoadReport::count(OutcomeStatus status) const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [&](const RequestOutcome &o) {
                          return o.status == status;
                      }));
}

std::vector<double>
LoadReport::scheduledLatenciesMs() const
{
    std::vector<double> out;
    for (const RequestOutcome &o : outcomes)
        if (o.status == OutcomeStatus::Ok)
            out.push_back(o.scheduledLatencyMs());
    return out;
}

std::vector<double>
LoadReport::sendLatenciesMs() const
{
    std::vector<double> out;
    for (const RequestOutcome &o : outcomes)
        if (o.status == OutcomeStatus::Ok)
            out.push_back(o.sendLatencyMs());
    return out;
}

std::uint32_t
LoadReport::maxBacklog() const
{
    return backlog.empty()
        ? 0
        : *std::max_element(backlog.begin(), backlog.end());
}

bool
LoadReport::backlogGrowing(std::uint32_t slack) const
{
    const std::size_t n = backlog.size();
    if (n < 8)
        return false;
    const auto first = std::max_element(backlog.begin(),
                                        backlog.begin() + n / 4);
    const auto last = std::max_element(backlog.begin() + 3 * n / 4,
                                       backlog.end());
    return *last > 2 * *first + slack;
}

LoadReport
runOpenLoop(const std::vector<ScheduledRequest> &schedule,
            const LoadOptions &options)
{
    LoadReport report;
    const std::size_t total = schedule.size();
    report.outcomes.resize(total);
    report.lateMs.reserve(total);
    report.backlog.reserve(total);

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < options.connections; ++c) {
        auto conn = std::make_unique<Connection>();
        conn->sock = net::connectTcp(options.host, options.port,
                                     report.error);
        if (!conn->sock.valid())
            return report;
        conns.push_back(std::move(conn));
    }

    // Lead time so the first sends are not late by the thread start.
    const std::int64_t start = nowNs() + 20'000'000;
    const std::int64_t last_at = total ? schedule.back().atNs : 0;
    const std::int64_t drain_deadline =
        start + last_at +
        static_cast<std::int64_t>(options.drainSeconds * 1e9);
    for (std::size_t i = 0; i < total; ++i)
        report.outcomes[i].scheduledNs = start + schedule[i].atNs;

    std::atomic<std::uint64_t> answered_total{0};
    std::atomic<bool> writer_done{false};
    // Requests the writer gave up on (connection failed before the
    // frame was fully written); resolved in the merge after both
    // threads end.
    std::vector<char> writer_dropped(total, 0);

    std::thread reader([&] {
        std::vector<pollfd> fds(conns.size());
        for (std::size_t c = 0; c < conns.size(); ++c)
            fds[c] = {conns[c]->sock.fd(), POLLIN, 0};
        std::uint64_t resolved = 0;
        while (resolved < total) {
            const std::int64_t now = nowNs();
            if (writer_done.load() && now > drain_deadline)
                break;
            bool any_live = false;
            for (std::size_t c = 0; c < conns.size(); ++c) {
                fds[c].fd = conns[c]->dead.load() ? -1
                                                  : conns[c]->sock.fd();
                any_live = any_live || fds[c].fd >= 0;
            }
            if (!any_live)
                break;
            const timespec wait = toTimespec(5'000'000);
            if (::ppoll(fds.data(), fds.size(), &wait, nullptr) <= 0)
                continue;
            for (std::size_t c = 0; c < conns.size(); ++c) {
                if (fds[c].fd < 0 || fds[c].revents == 0)
                    continue;
                Connection &conn = *conns[c];
                net::FrameType type;
                std::vector<std::uint8_t> payload;
                std::string error;
                if (!net::readFrame(conn.sock, type, payload, error)) {
                    conn.dead.store(true);
                    continue;
                }
                const std::int64_t read_at = nowNs();
                std::uint64_t id = 0;
                net::WireClassifyResponse response;
                net::WireError wire_error;
                bool ok = false;
                const std::int64_t t0 = nowNs();
                if (type == net::FrameType::ClassifyResponse) {
                    ok = net::decodeClassifyResponse(
                        payload.data(), payload.size(), response, error);
                    id = response.id;
                } else if (type == net::FrameType::Error &&
                           net::decodeError(payload.data(),
                                            payload.size(), wire_error,
                                            error)) {
                    id = wire_error.id;
                }
                const double decode_us =
                    static_cast<double>(nowNs() - t0) * 1e-3;
                if (id == 0 || id > total ||
                    report.outcomes[id - 1].status !=
                        OutcomeStatus::Unanswered) {
                    conn.dead.store(true); // unmatched frame: stream lost
                    continue;
                }
                RequestOutcome &o = report.outcomes[id - 1];
                o.answeredNs = read_at;
                o.decodeUs = decode_us;
                if (ok) {
                    o.status = OutcomeStatus::Ok;
                    o.response = std::move(response);
                } else {
                    o.status = OutcomeStatus::Error;
                    o.error = wire_error.code;
                }
                ++resolved;
                conn.answered.fetch_add(1);
                answered_total.fetch_add(1);
            }
        }
    });

    // Writer: queue each frame at its scheduled time, then push bytes
    // on every connection that can take them without blocking.
    std::uint64_t queued_total = 0;
    // Returns true when the connection holds frames only because its
    // in-flight cap is reached.
    auto flush = [&](Connection &conn) {
        while (!conn.queue.empty() && !conn.dead.load()) {
            const std::size_t idx = conn.queue.front();
            if (conn.offset == 0 && options.maxInFlightPerConnection > 0 &&
                conn.started - conn.answered.load() >=
                    options.maxInFlightPerConnection)
                return true;
            const std::vector<std::uint8_t> &frame = schedule[idx].frame;
            // Stamp before the call: once the bytes are in the kernel the
            // server may read them before this thread runs again.
            const std::int64_t before = nowNs();
            const ssize_t sent = ::send(conn.sock.fd(),
                                        frame.data() + conn.offset,
                                        frame.size() - conn.offset,
                                        MSG_DONTWAIT | MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR)
                    continue;
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    conn.dead.store(true);
                return false;
            }
            if (conn.offset == 0) {
                report.outcomes[idx].sendStartNs = before;
                ++conn.started;
            }
            conn.offset += static_cast<std::size_t>(sent);
            if (conn.offset == frame.size()) {
                report.outcomes[idx].writtenNs = nowNs();
                conn.queue.pop_front();
                conn.offset = 0;
            }
        }
        return false;
    };

    std::size_t next = 0;
    std::vector<pollfd> wfds;
    for (;;) {
        const std::int64_t now = nowNs();
        while (next < total && start + schedule[next].atNs <= now) {
            const ScheduledRequest &req = schedule[next];
            RequestOutcome &o = report.outcomes[next];
            o.queuedNs = now;
            report.lateMs.push_back(
                static_cast<double>(now - o.scheduledNs) * 1e-6);
            ++queued_total;
            report.backlog.push_back(static_cast<std::uint32_t>(
                queued_total - answered_total.load()));
            conns[req.connection % conns.size()]->queue.push_back(next);
            ++next;
        }
        bool pending = false;
        bool capped = false;
        wfds.clear();
        for (auto &conn : conns) {
            const bool held = flush(*conn);
            if (conn->dead.load() || conn->queue.empty())
                continue;
            pending = true;
            capped = capped || held;
            if (!held)
                wfds.push_back({conn->sock.fd(), POLLOUT, 0});
        }
        if (next >= total && !pending)
            break;
        if (nowNs() > drain_deadline)
            break; // frames still stuck in full socket buffers
        const std::int64_t wake =
            next < total ? start + schedule[next].atNs : now + 10'000'000;
        if (pending) {
            // In-flight-capped connections wake on the reader's
            // progress, which poll() cannot see: poll briefly.
            std::int64_t wait = wake - nowNs();
            if (capped)
                wait = std::min<std::int64_t>(wait, 100'000);
            const timespec ts = toTimespec(wait);
            ::ppoll(wfds.data(), wfds.size(), &ts, nullptr);
        } else {
            const timespec ts = toTimespec(wake - nowNs());
            ::nanosleep(&ts, nullptr);
        }
    }
    for (auto &conn : conns)
        for (const std::size_t idx : conn->queue)
            writer_dropped[idx] = 1;
    writer_done.store(true);
    reader.join();

    for (std::size_t i = 0; i < total; ++i) {
        RequestOutcome &o = report.outcomes[i];
        if (o.status == OutcomeStatus::Unanswered &&
            (writer_dropped[i] ||
             conns[schedule[i].connection % conns.size()]->dead.load()))
            o.status = OutcomeStatus::Dropped;
    }
    // Reset instead of FIN: frames the server has not read yet are
    // discarded with the connection rather than served after the phase.
    for (auto &conn : conns) {
        const linger hard{1, 0};
        ::setsockopt(conn->sock.fd(), SOL_SOCKET, SO_LINGER, &hard,
                     sizeof(hard));
    }

    if (Tracer *tracer = options.tracer; tracer && tracer->enabled()) {
        for (std::size_t i = 0; i < total; ++i) {
            const RequestOutcome &o = report.outcomes[i];
            if (o.status != OutcomeStatus::Ok)
                continue;
            const std::uint64_t rid = i + 1;
            const std::int64_t decoded =
                o.answeredNs + static_cast<std::int64_t>(o.decodeUs * 1e3);
            const std::uint64_t root =
                tracer->record("request", o.scheduledNs, decoded, 0, rid);
            tracer->record("loadgen.wait", o.scheduledNs, o.sendStartNs,
                           root, rid);
            tracer->record("net.write", o.sendStartNs, o.writtenNs, root,
                           rid);
            const std::uint64_t wait = tracer->record(
                "net.response", o.writtenNs, o.answeredNs, root, rid);
            const std::int64_t server_ns =
                static_cast<std::int64_t>(o.response.serverMicros * 1e3);
            tracer->record("serve.server",
                           std::max(o.writtenNs, o.answeredNs - server_ns),
                           o.answeredNs, wait, rid);
            tracer->record("net.decode", o.answeredNs, decoded, root, rid);
        }
    }
    return report;
}

std::vector<std::int64_t>
poissonArrivals(double rate, double seconds, std::uint64_t seed)
{
    vibnn::Rng rng(seed);
    std::vector<std::int64_t> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        out.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    return out;
}

} // namespace perfbench
