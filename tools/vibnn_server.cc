/**
 * @file
 * vibnn_server — the serving daemon around serve::Server.
 *
 * Serves a compiled Bayesian-MLP program over the vibnn-serve wire
 * protocol (docs/SERVING.md documents the frames, knobs, and metrics
 * schema). By default it compiles a synthetic 24-16-4 Bayesian MLP
 * (deterministic from --seed) so the daemon is self-contained for
 * smokes and load tests; --program serves a model image saved by
 * core::saveQuantizedProgram instead.
 *
 *   ./build/vibnn_server --port 7411 --shards 2 --queue 128
 *   ./build/vibnn_server --port 0 --port-file /tmp/vibnn.port
 *
 * Session policy (exec mode, T, GRNG, adaptive early exit, the
 * deadline-aware coalescer's default budget) comes from the
 * VIBNN_SERVE_* environment knobs. The process runs until a client
 * sends a Shutdown frame (vibnn_client shutdown), then drains, prints
 * a serving summary, and exits 0.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/model_io.hh"
#include "serve/server.hh"
#include "serve/session.hh"

using namespace vibnn;

namespace
{

void
usage()
{
    std::printf(
        "usage: vibnn_server [options]\n"
        "  --host ADDR       bind address (default 127.0.0.1)\n"
        "  --port N          TCP port, 0 = ephemeral (default 7411)\n"
        "  --port-file PATH  write the bound port there (scripting)\n"
        "  --shards N        session shards (default 1, 0 = cores)\n"
        "  --queue N         per-shard in-flight bound (default 256)\n"
        "  --max-conns N     connection bound (default 1024)\n"
        "  --remote-shutdown loopback|on|off\n"
        "                    honor client Shutdown frames: only from\n"
        "                    a loopback bind (default), always, never\n"
        "  --watchdog-ms N   shard health watchdog poll interval,\n"
        "                    0 = off (default 0)\n"
        "  --brownout        degrade under queue pressure: browned-out\n"
        "                    shards serve at a reduced T and stamp the\n"
        "                    response degraded (needs --watchdog-ms)\n"
        "  --brownout-t N    the reduced ensemble size (default 2)\n"
        "  --program FILE    serve a saved QuantizedProgram instead\n"
        "                    of the synthetic 24-16-4 MLP\n"
        "  --seed N          synthetic-model seed (default 7)\n"
        "Session policy comes from VIBNN_SERVE_* (see docs/SERVING.md)\n");
}

long long
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal(std::string(argv[i]) + " expects a value");
    return std::atoll(argv[++i]);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::string port_file;
    std::string program_path;
    std::string remote_shutdown = "loopback";
    int port = 7411;
    long long shards = 1, queue = 256, max_conns = 1024, seed = 7;
    long long watchdog_ms = 0, brownout_t = 2;
    bool brownout = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host" && i + 1 < argc)
            host = argv[++i];
        else if (arg == "--port")
            port = static_cast<int>(argValue(argc, argv, i));
        else if (arg == "--port-file" && i + 1 < argc)
            port_file = argv[++i];
        else if (arg == "--shards")
            shards = argValue(argc, argv, i);
        else if (arg == "--queue")
            queue = argValue(argc, argv, i);
        else if (arg == "--max-conns")
            max_conns = argValue(argc, argv, i);
        else if (arg == "--remote-shutdown" && i + 1 < argc)
            remote_shutdown = argv[++i];
        else if (arg == "--program" && i + 1 < argc)
            program_path = argv[++i];
        else if (arg == "--seed")
            seed = argValue(argc, argv, i);
        else if (arg == "--watchdog-ms")
            watchdog_ms = argValue(argc, argv, i);
        else if (arg == "--brownout")
            brownout = true;
        else if (arg == "--brownout-t")
            brownout_t = argValue(argc, argv, i);
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '" + arg + "'");
        }
    }
    if (port < 0 || port > 65535)
        fatal("--port must be in [0, 65535]");
    if (shards < 0 || queue < 1 || max_conns < 1)
        fatal("--shards must be >= 0, --queue and --max-conns >= 1");
    if (watchdog_ms < 0 || brownout_t < 1)
        fatal("--watchdog-ms must be >= 0, --brownout-t >= 1");
    if (brownout && watchdog_ms == 0)
        fatal("--brownout requires --watchdog-ms > 0 (health "
              "transitions run on the watchdog)");

    // The model: a saved deployment image, or the self-contained
    // synthetic MLP (untrained weights — structure and determinism are
    // what smokes and load tests need, not accuracy).
    accel::AcceleratorConfig config;
    accel::QuantizedProgram program;
    if (!program_path.empty()) {
        auto loaded = core::loadQuantizedProgram(program_path);
        if (!loaded)
            fatal("cannot load a QuantizedProgram from '" +
                  program_path + "'");
        // A well-formed file can still hold an unusable program (ops
        // that do not chain, short planes, an infeasible geometry):
        // say why and exit before any shard is built.
        const std::string reason = accel::validateProgram(*loaded, config);
        if (!reason.empty())
            fatal("--program '" + program_path + "': " + reason);
        program = std::move(*loaded);
    } else {
        config.peSets = 2;
        config.pesPerSet = 8;
        config.mcSamples = 8;
        Rng rng(static_cast<std::uint64_t>(seed));
        bnn::BayesianMlp net({24, 16, 4}, rng, -3.0f);
        program = compile(net, config);
    }

    serve::SessionOptions session_defaults;
    session_defaults.mode = serve::ExecMode::Throughput;
    serve::ServerOptions options;
    options.host = host;
    options.port = static_cast<std::uint16_t>(port);
    options.shards = static_cast<std::size_t>(shards);
    options.queueCapacity = static_cast<std::size_t>(queue);
    options.maxConnections = static_cast<std::size_t>(max_conns);
    options.watchdogMillis = watchdog_ms;
    options.brownout = brownout;
    options.brownoutSamples = static_cast<int>(brownout_t);
    if (remote_shutdown == "loopback")
        options.remoteShutdown = serve::RemoteShutdown::LoopbackOnly;
    else if (remote_shutdown == "on")
        options.remoteShutdown = serve::RemoteShutdown::Enabled;
    else if (remote_shutdown == "off")
        options.remoteShutdown = serve::RemoteShutdown::Disabled;
    else
        fatal("--remote-shutdown must be loopback, on, or off, got '" +
              remote_shutdown + "'");
    options.session = serve::SessionOptions::fromEnv(session_defaults);

    serve::Server server(std::move(program), config, options);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "vibnn_server: %s\n", error.c_str());
        return 1;
    }
    std::printf("vibnn_server: listening on %s:%u  shards=%zu "
                "queue=%zu mode=%s T=%d kernel=%s\n",
                host.c_str(), server.port(), server.shardCount(),
                options.queueCapacity,
                execModeName(options.session.mode),
                options.session.mcSamples,
                serve::InferenceSession::kernelName());
    std::fflush(stdout);

    if (!port_file.empty()) {
        FILE *f = std::fopen(port_file.c_str(), "w");
        if (!f)
            fatal("cannot write port file '" + port_file + "'");
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    server.waitForShutdownRequest();
    std::printf("vibnn_server: shutdown requested, draining\n");
    server.stop();

    const serve::ServerStats stats = server.stats();
    std::printf("vibnn_server: served %llu requests (%llu images, "
                "%llu rejected)  p50=%.0fus p95=%.0fus p99=%.0fus\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.images),
                static_cast<unsigned long long>(stats.rejects),
                stats.p50Micros, stats.p95Micros, stats.p99Micros);
    if (stats.retriesObserved > 0 || stats.brownoutPasses > 0 ||
        stats.watchdogTrips > 0)
        std::printf(
            "vibnn_server: retries_observed=%llu brownout_passes=%llu "
            "watchdog_trips=%llu\n",
            static_cast<unsigned long long>(stats.retriesObserved),
            static_cast<unsigned long long>(stats.brownoutPasses),
            static_cast<unsigned long long>(stats.watchdogTrips));
    return 0;
}
