/**
 * @file
 * vibnn-serve: the network-facing serving subsystem.
 *
 * A serve::Server multiplexes many TCP client connections onto a
 * SHARDED pool of InferenceSessions — one shard per core group, each
 * with its own McEngine replicas — behind the length-prefixed binary
 * protocol of net/protocol.hh. The pieces a millions-of-users
 * deployment needs sit in this layer:
 *
 *  - Admission control: every shard bounds its in-flight requests
 *    (ServerOptions::queueCapacity). A request that would exceed the
 *    bound is REJECTED with an explicit Overloaded error frame —
 *    overload degrades into fast, visible rejections instead of
 *    unbounded queue growth and collapse.
 *  - Deadline-aware coalescing: each shard's session dispatcher holds
 *    a deadlined request only as long as its latency budget allows
 *    (serve/coalescer.hh), filling Monte-Carlo rounds from concurrent
 *    connections without ever breaking a budget.
 *  - Observability: per-shard p50/p95/p99 latency, queue depth,
 *    rounds/s, merge factor, and reject counts via stats(), and as a
 *    JSON document served to any client over the MetricsRequest frame
 *    (the metrics "endpoint" — see serve::Client::metrics()).
 *  - Self-healing: an optional watchdog thread tracks per-shard
 *    health (Healthy / Degraded / Wedged). A shard whose engine pass
 *    has run far past the configured bound is marked Wedged and the
 *    router avoids it until the pass completes; under queue pressure
 *    a shard BROWNS OUT — serves at a reduced ensemble size, stamping
 *    the degraded flag and the achieved T into the response — and
 *    recovers with hysteresis once the pressure clears. Degrade
 *    service, don't refuse it.
 *  - Graceful drain: beginDrain() flushes every dispatcher hold and
 *    answers new classifies with a deterministic ShuttingDown error
 *    frame; stop() drains in-flight work bounded before tearing the
 *    connections down, so held requests complete instead of dying
 *    mid-flight.
 *
 * Determinism carries through from the session layer: every shard
 * serves the same (program, seed, GRNG), and per-request outputs are
 * independent of batch composition, so a prediction served over the
 * socket is bit-identical to in-process InferenceSession::run() no
 * matter the shard count, routing, or connection interleaving
 * (ctest-pinned in tests/test_server.cc).
 */

#ifndef VIBNN_SERVE_SERVER_HH
#define VIBNN_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"
#include "serve/session.hh"

namespace vibnn::serve
{

/**
 * Fixed-footprint geometric latency histogram (1 us resolution floor,
 * ~25% bucket width, covering up to ~100 s). Quantiles are read from
 * the bucket boundaries, so p50/p95/p99 cost no sample storage and
 * recording is one atomic increment — cheap enough for every request.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 84;

    /** Record one latency observation (values are clamped into the
     *  covered range). Thread-safe, lock-free. */
    void record(double micros);

    /** Total recorded observations. */
    std::uint64_t count() const;

    /** Approximate quantile in microseconds (q in [0, 1]); 0 when
     *  nothing was recorded. Reads a racy snapshot — metrics, not
     *  accounting. */
    double quantileMicros(double q) const;

    /** Fold another histogram's counts into this one (metrics
     *  aggregation across shards). */
    void merge(const LatencyHistogram &other);

    /** Upper bound (micros) of bucket i — exposed for tests. */
    static double bucketUpperMicros(std::size_t i);

  private:
    std::atomic<std::uint64_t> counts_[kBuckets] = {};
};

/** Who may stop the server with a Shutdown frame. Any connected peer
 *  can send one, so on a non-loopback bind an unrestricted Shutdown
 *  is an unauthenticated remote kill switch. */
enum class RemoteShutdown
{
    /** Honor Shutdown only when the bind address is loopback — the
     *  safe default: local tooling keeps the client-driven-stop
     *  workflow, a LAN-exposed server ignores remote kills. */
    LoopbackOnly,
    /** Always honor Shutdown (an orchestrator owns the network). */
    Enabled,
    /** Never honor Shutdown; only the owner's stop() ends serving. */
    Disabled,
};

/** Watchdog-assigned serving state of one shard. */
enum class ShardHealth
{
    /** Serving normally. */
    Healthy,
    /** Brownout: queue pressure crossed the enter threshold; the
     *  shard serves at a reduced ensemble size until pressure drops
     *  below the exit threshold (hysteresis). */
    Degraded,
    /** The shard's current engine pass has run past the wedge bound;
     *  the router avoids the shard until the pass completes. */
    Wedged,
};

/** Canonical lower-case name ("healthy", "degraded", "wedged"). */
const char *shardHealthName(ShardHealth health);

/** Serving policy of one server process. */
struct ServerOptions
{
    /** IPv4 address to bind. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;
    /** Session shards. Each shard owns a full InferenceSession (its
     *  own McEngine replicas and dispatcher); requests route to the
     *  least-loaded shard. 0 picks the hardware concurrency. */
    std::size_t shards = 1;
    /** Per-shard in-flight request bound — the admission-control
     *  knob. Requests beyond it are rejected with Overloaded. */
    std::size_t queueCapacity = 256;
    /** Concurrent connection bound; excess connections are refused
     *  with an Overloaded error frame. */
    std::size_t maxConnections = 1024;
    /** Shutdown-frame policy (see RemoteShutdown). A refused Shutdown
     *  gets a BadRequest error frame and the connection survives. */
    RemoteShutdown remoteShutdown = RemoteShutdown::LoopbackOnly;
    /** Watchdog poll interval in milliseconds; 0 (the default)
     *  disables the watchdog — and with it shard health tracking and
     *  brownout, reproducing the pre-fault-tolerance server
     *  exactly. */
    std::int64_t watchdogMillis = 0;
    /** Enable brownout degradation: under queue pressure a Degraded
     *  shard clamps the served ensemble size to brownoutSamples and
     *  stamps the response degraded. Requires the watchdog (health
     *  transitions happen only on its thread). */
    bool brownout = false;
    /** Queue-pressure fraction of queueCapacity at which a shard
     *  enters brownout... */
    double brownoutEnterFraction = 0.75;
    /** ...and the (lower) fraction at which it exits — the gap is the
     *  hysteresis that stops flapping. */
    double brownoutExitFraction = 0.25;
    /** The reduced ensemble size a browned-out shard serves with. */
    int brownoutSamples = 2;
    /** An engine pass older than this (milliseconds) marks its shard
     *  Wedged. */
    std::int64_t wedgedAfterMillis = 1000;
    /** Per-shard serving policy (exec mode, T, GRNG, seed, deadline
     *  defaults...). Every shard gets an identical copy — one seed,
     *  one program — which is what makes routing invisible in the
     *  outputs. */
    SessionOptions session;
};

/** Point-in-time view of one shard. */
struct ShardStats
{
    std::uint64_t requests = 0;
    std::uint64_t images = 0;
    std::uint64_t rejects = 0;
    std::uint64_t passes = 0;
    std::uint64_t coalescedPasses = 0;
    std::uint64_t heldPasses = 0;
    /** Monte-Carlo rounds spent (sum of achieved per-image rounds). */
    std::uint64_t rounds = 0;
    /** In-flight requests right now. */
    std::size_t queueDepth = 0;
    /** Mean images per engine pass (the merge factor). */
    double mergeImagesPerPass = 0.0;
    /** Mean requests per engine pass. */
    double mergeRequestsPerPass = 0.0;
    double p50Micros = 0.0;
    double p95Micros = 0.0;
    double p99Micros = 0.0;
    /** Watchdog-assigned health (Healthy when the watchdog is off). */
    ShardHealth health = ShardHealth::Healthy;
    /** Requests served at a brownout-reduced ensemble size. */
    std::uint64_t brownoutPasses = 0;
    /** Requests that arrived stamped as a retry (retryAttempt > 0). */
    std::uint64_t retriesObserved = 0;
    /** MC rounds whose weights the shared weight-ensemble cache
     *  supplied, and rounds that drew them from the GRNG. */
    std::uint64_t roundsRestored = 0;
    std::uint64_t roundsDrawn = 0;
};

/** Point-in-time view of the whole server. */
struct ServerStats
{
    std::vector<ShardStats> shards;
    std::uint64_t requests = 0;
    std::uint64_t images = 0;
    std::uint64_t rejects = 0;
    std::uint64_t rounds = 0;
    std::size_t activeConnections = 0;
    double uptimeSeconds = 0.0;
    double roundsPerSecond = 0.0;
    double p50Micros = 0.0;
    double p95Micros = 0.0;
    double p99Micros = 0.0;
    /** Sums over the shards. */
    std::uint64_t brownoutPasses = 0;
    std::uint64_t retriesObserved = 0;
    /** Healthy→Wedged transitions the watchdog recorded. */
    std::uint64_t watchdogTrips = 0;
    /** Injected faults fired process-wide (fault::totalFires()) — 0
     *  outside chaos runs. */
    std::uint64_t faultFires = 0;
    /** Bytes of filled rounds over every live weight-ensemble cache
     *  in the process (the shards share one cache per program and
     *  seed, so this is not a per-shard figure). */
    std::uint64_t weightCacheBytes = 0;
    /** beginDrain() ran: new classifies get ShuttingDown. */
    bool draining = false;
};

/** The network server. Construct, start(), serve until a client sends
 *  Shutdown (waitForShutdownRequest()) or the owner calls stop(). */
class Server
{
  public:
    /**
     * @param program The compiled program every shard serves.
     * @param config Accelerator geometry the program was compiled for.
     * @param options Serving policy; options.session is validated by
     *        the first shard's Builder (fatal on bad configuration,
     *        exactly like an in-process session).
     */
    Server(accel::QuantizedProgram program,
           const accel::AcceleratorConfig &config,
           ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start accepting. False + `error` on a bind /
     * listen failure (an occupied port is a runtime condition, not a
     * configuration bug — no fatal()).
     */
    bool start(std::string &error);

    /**
     * Enter draining: every dispatcher hold is flushed (held batches
     * dispatch immediately) and every classify that arrives from now
     * on is answered with a deterministic ShuttingDown error frame —
     * in-flight requests still complete and their responses still go
     * out. Idempotent; stop() calls it first.
     */
    void beginDrain();

    /** True once beginDrain() (or stop()) ran. */
    bool draining() const { return draining_.load(); }

    /** Stop accepting, drain in-flight work (bounded), unblock and
     *  join every connection. Idempotent; also runs on
     *  destruction. */
    void stop();

    bool running() const { return running_.load(); }

    /** The bound TCP port (after start()). */
    std::uint16_t port() const { return boundPort_; }

    std::size_t shardCount() const { return shards_.size(); }

    const ServerOptions &options() const { return options_; }

    /** True once a client sent a Shutdown frame (or stop() ran). */
    bool shutdownRequested() const;

    /** Block until shutdownRequested(). The canonical daemon main is
     *  start(); waitForShutdownRequest(); stop(). */
    void waitForShutdownRequest();

    /** Aggregate + per-shard serving statistics. */
    ServerStats stats() const;

    /** The statistics rendered as a JSON document — what the metrics
     *  frame serves (schema documented in docs/SERVING.md). */
    std::string metricsJson() const;

    /** Watchdog-assigned health of shard `i` (Healthy when the
     *  watchdog is off). */
    ShardHealth shardHealth(std::size_t i) const;

  private:
    struct Shard
    {
        std::unique_ptr<InferenceSession> session;
        std::atomic<std::size_t> inflight{0};
        std::atomic<std::uint64_t> rejects{0};
        std::atomic<std::uint64_t> rounds{0};
        /** ShardHealth; written only by the watchdog thread. */
        std::atomic<int> health{0};
        std::atomic<std::uint64_t> brownoutPasses{0};
        std::atomic<std::uint64_t> retriesObserved{0};
        LatencyHistogram latency;
    };

    /** One accepted connection: socket + its service thread. */
    struct Connection
    {
        net::Socket sock;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(Connection &conn);
    /** Health poller: marks over-deadline passes Wedged and drives
     *  brownout enter/exit — the only writer of Shard::health. */
    void watchdogLoop();
    /** Route to the least-loaded shard (smallest in-flight count),
     *  preferring non-Wedged shards. */
    Shard &pickShard();
    /** Handle one decoded classify frame on `conn`'s socket. */
    bool handleClassify(Connection &conn,
                        const std::vector<std::uint8_t> &payload);
    /** Join finished connection threads (called from the accept
     *  loop); with `all`, join everything (shutdown). */
    void reapConnections(bool all);

    static bool sendError(const net::Socket &sock, std::uint64_t id,
                          net::ErrorCode code,
                          const std::string &message);

    ServerOptions options_;
    std::vector<std::unique_ptr<Shard>> shards_;

    net::Socket listener_;
    std::uint16_t boundPort_ = 0;
    std::thread acceptThread_;
    std::thread watchdogThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> watchdogTrips_{0};
    /** Wakes the watchdog out of its poll sleep at stop(). */
    mutable std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    /** Resolved remoteShutdown policy against the bind address. */
    bool shutdownAllowed_ = true;
    /** One-shot latch so a persistent accept failure (fd exhaustion)
     *  warns once instead of flooding stderr. */
    std::atomic<bool> acceptFailureLogged_{false};

    mutable std::mutex connMutex_;
    std::vector<std::unique_ptr<Connection>> connections_;

    mutable std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;

    std::chrono::steady_clock::time_point startTime_;
};

} // namespace vibnn::serve

#endif // VIBNN_SERVE_SERVER_HH
