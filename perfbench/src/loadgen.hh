/**
 * @file
 * Open-loop load generator over the vibnn-serve wire protocol.
 *
 * Requests are pre-encoded and sent on a fixed schedule by one writer
 * thread; one reader thread collects the responses. A frame is queued
 * for its connection at its scheduled time even while that connection
 * has requests outstanding (pipelining), and writes never block the
 * schedule: a connection whose socket buffer is full keeps its queue
 * and the writer moves on. Latency is taken from the scheduled send
 * time, so a stall in the server shows in every request it delays —
 * no coordinated omission. The generator's own lateness (scheduled
 * time to queueing) is reported so a run can be checked for validity.
 *
 * `maxInFlightPerConnection = 1` reproduces a blocking client (one
 * request per connection at a time), the style whose send-time
 * latencies hide queueing; the self-test uses it to show the
 * difference.
 */
#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/net/protocol.hh"
#include "trace.hh"

namespace perfbench
{

/** One request of a schedule. */
struct ScheduledRequest
{
    /** Send time in nanoseconds from the start of the phase. */
    std::int64_t atNs = 0;
    /** Connection index in [0, connections). */
    std::uint32_t connection = 0;
    /** A complete encoded frame (net::encodeClassifyRequest). Its wire
     *  id must be the request's index in the schedule plus one. */
    std::vector<std::uint8_t> frame;
};

enum class OutcomeStatus
{
    /** No response before the phase ended. */
    Unanswered,
    /** A ClassifyResponse arrived. */
    Ok,
    /** An Error frame arrived (rejection included). */
    Error,
    /** The connection failed before the response arrived. */
    Dropped,
};

struct RequestOutcome
{
    OutcomeStatus status = OutcomeStatus::Unanswered;
    /** Absolute steady-clock nanoseconds. */
    std::int64_t scheduledNs = 0;
    /** When the generator queued the frame for its connection. */
    std::int64_t queuedNs = 0;
    /** When the send() that carried the first byte began (0 if
     *  never). */
    std::int64_t sendStartNs = 0;
    /** When the last byte was handed to the kernel (0 if never). */
    std::int64_t writtenNs = 0;
    /** When the response frame was fully read (0 if none). */
    std::int64_t answeredNs = 0;
    /** Time spent decoding the response, microseconds. */
    double decodeUs = 0.0;
    vibnn::serve::net::WireClassifyResponse response;
    vibnn::serve::net::ErrorCode error =
        vibnn::serve::net::ErrorCode::Internal;

    /** Latency from the schedule, milliseconds. */
    double
    scheduledLatencyMs() const
    {
        return static_cast<double>(answeredNs - scheduledNs) * 1e-6;
    }
    /** Latency from the first byte actually sent, milliseconds. */
    double
    sendLatencyMs() const
    {
        return static_cast<double>(answeredNs - sendStartNs) * 1e-6;
    }
};

struct LoadOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t connections = 4;
    /** Requests a connection may have outstanding; 0 = unlimited
     *  (pipelined open loop). */
    std::size_t maxInFlightPerConnection = 0;
    /** How long after the last scheduled send to wait for answers. */
    double drainSeconds = 3.0;
    /** Optional span sink (the per-request spans). */
    Tracer *tracer = nullptr;
};

struct LoadReport
{
    /** Indexed like the schedule. */
    std::vector<RequestOutcome> outcomes;
    /** Generator lateness per request (queued - scheduled), ms. */
    std::vector<double> lateMs;
    /** Outstanding requests (queued, not yet answered) seen at each
     *  queueing, in schedule order. */
    std::vector<std::uint32_t> backlog;
    /** Connection setup failed (nothing was sent). */
    std::string error;

    std::size_t count(OutcomeStatus status) const;
    /** Scheduled-send latencies (ms) of the answered requests. */
    std::vector<double> scheduledLatenciesMs() const;
    /** Actual-send latencies (ms) of the answered requests. */
    std::vector<double> sendLatenciesMs() const;
    std::uint32_t maxBacklog() const;
    /** True when the backlog in the last quarter of the schedule
     *  exceeds twice (plus `slack`) its peak in the first quarter —
     *  the queue grew through the phase instead of settling. */
    bool backlogGrowing(std::uint32_t slack) const;
};

/** Run one open-loop phase against host:port. Blocks until every
 *  request is answered or the drain window after the last scheduled
 *  send expires; every thread it starts has ended on return. */
LoadReport runOpenLoop(const std::vector<ScheduledRequest> &schedule,
                       const LoadOptions &options);

/** Poisson arrival times (ns from phase start) at `rate` per second
 *  over `seconds`, from a seeded stream. */
std::vector<std::int64_t> poissonArrivals(double rate, double seconds,
                                          std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
