#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "accel/batched_runner.hh"
#include "accel/kernels/kernels.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "accel/weight_generator.hh"
#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/synth_mnist.hh"
#include "grng/registry.hh"
#include "loadgen.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace vibnn;
namespace net = serve::net;
namespace kern = accel::kernels;

/** The paper's MNIST Bayesian MLP. */
const std::vector<std::size_t> kLayers = {data::kMnistPixels, 200, 200, 10};
constexpr std::size_t kDim = data::kMnistPixels;
/** Images the fixture is trained on (~1.4 s of batched training). */
constexpr std::size_t kFixtureTrain = 1200;
/** Held-out images requests draw from. */
constexpr std::size_t kPoolImages = 1024;
/** Measured chunks per offline and training run, each after a fresh
 *  set-up. */
constexpr int kChunks = 5;

/** Independent sub-seed `tag` of the workload seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + tag;
    splitmix64Next(state);
    return splitmix64Next(state);
}

double
msBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-6;
}

/** Restarts the peak resident set (VmHWM) from the current resident
 *  set, so rss_mb covers the measured phase and not the untimed fixture
 *  training or reference runs before it. Linux only; returns false
 *  where the kernel does not support it. */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return clear.good();
}

/** Peak resident set in MB: VmHWM since the last resetPeakRss(), or
 *  the whole process's ru_maxrss where /proc is unavailable. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Notes what rss_mb covers in the record. */
void
noteRssScope(RunResult &out, bool reset, const char *phase)
{
    out.note("rss.scope",
             reset ? std::string("peak over ") + phase +
                     ", from the resident set at its start"
                   : "peak over the whole process (peak reset unsupported)");
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : std::accumulate(values.begin(), values.end(), 0.0) /
            static_cast<double>(values.size());
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
joined(const std::vector<double> &values)
{
    std::string out;
    for (const double v : values)
        out += (out.empty() ? "" : " ") + fmt(v);
    return out;
}

/** Median wall time of `reps` calls of `body`, microseconds. */
double
medianUs(int reps, const std::function<void()> &body)
{
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        body();
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return median(us);
}

// ------------------------------------------------------------ fixture

/** A trained model plus the held-out image pool requests draw from. */
struct Fixture
{
    data::Dataset data;
    std::unique_ptr<bnn::BayesianMlp> net;
    accel::AcceleratorConfig config;

    const float *pool() const { return data.test.features.data(); }
    int label(std::size_t i) const { return data.test.labels[i]; }
};

Fixture
makeFixture(std::uint64_t seed)
{
    Fixture fx;
    data::SynthMnistConfig synth;
    synth.trainCount = kFixtureTrain;
    synth.testCount = kPoolImages;
    synth.seed = derive(seed, 1);
    fx.data = data::makeSynthMnist(synth);
    Rng rng(derive(seed, 2));
    fx.net = std::make_unique<bnn::BayesianMlp>(kLayers, rng, -4.0f);
    // Training is bit-identical for any pool partition; two threads
    // train about as fast as four here. It counts in no metric.
    ThreadPool pool(1);
    bnn::BnnBatchedTrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 32;
    cfg.seed = derive(seed, 3);
    cfg.pool = &pool;
    bnn::trainBnnBatched(*fx.net, fx.data.train.view(), cfg);
    return fx;
}

// -------------------------------------------------- layer-by-layer replay

/** One pass shape replayed against the engine. */
struct PassShape
{
    int t = 8;
    std::size_t batch = 1;
    bool adaptive = false;
    std::size_t threads = 1;
};

accel::McAdaptiveOptions
adaptiveOptions(int t)
{
    accel::McAdaptiveOptions o;
    o.budget = t;
    o.chunk = 4;
    o.test.confidence = 0.999;
    o.test.minSamples = 4;
    return o;
}

serve::SessionOptions::AdaptivePolicy
adaptivePolicy()
{
    serve::SessionOptions::AdaptivePolicy p;
    p.enabled = true;
    p.confidence = 0.999;
    p.minSamples = 4;
    p.chunk = 4;
    return p;
}

std::unique_ptr<accel::McEngine>
makeEngine(const accel::QuantizedProgram &program,
           accel::AcceleratorConfig config, int t, std::size_t threads,
           std::uint64_t seed)
{
    config.mcSamples = t;
    accel::McEngineConfig mc;
    mc.threads = threads;
    mc.generatorId = "rlf";
    mc.seedBase = seed;
    mc.backendId = "batched";
    mc.schedule = accel::McSchedule::PerRound;
    return std::make_unique<accel::McEngine>(program, config, mc);
}

/** One engine pass at `shape` on `engine`. */
void
runPass(accel::McEngine &engine, const float *images, const PassShape &shape)
{
    if (shape.adaptive)
        engine.classifyBatchAdaptive(images, shape.batch, kDim,
                                     adaptiveOptions(shape.t));
    else
        engine.classifyBatchDetailed(images, shape.batch, kDim);
}

/**
 * Median over `reps` of combine(a_us, b_us), timing `a` and `b` back
 * to back in every repetition, alternating which goes first. A
 * difference or ratio of two layer times is only meaningful when both
 * saw the same machine state, and on a shared host that state changes
 * within seconds.
 */
double
pairedMedian(int reps, const std::function<void()> &a,
             const std::function<void()> &b,
             const std::function<double(double, double)> &combine)
{
    auto timed = [](const std::function<void()> &body) {
        const std::int64_t t0 = nowNs();
        body();
        return static_cast<double>(nowNs() - t0) * 1e-3;
    };
    std::vector<double> values;
    for (int r = 0; r < reps; ++r) {
        double a_us = 0.0, b_us = 0.0;
        if (r % 2 == 0) {
            a_us = timed(a);
            b_us = timed(b);
        } else {
            b_us = timed(b);
            a_us = timed(a);
        }
        values.push_back(combine(a_us, b_us));
    }
    return median(values);
}

/**
 * Time every accelerator layer from outside, around its public
 * functions: eps generation, the fused weight draw, quantize and GEMM
 * per op, one MC round, one MC pass, and the session around the pass.
 * Rounds and the reduction split run single-threaded so the draw and
 * GEMM shares read the same on any core count; passes run at the
 * workload's engine thread count.
 */
void
replayLayers(const accel::QuantizedProgram &program,
             const accel::AcceleratorConfig &config, const float *images,
             std::uint64_t seed, const std::vector<PassShape> &passes,
             const serve::SessionOptions *session_opts, Tracer &tracer,
             RunResult &out)
{
    const auto &ops = kern::activeKernels();
    const accel::DatapathKernel kernel(program.activationFormat,
                                       program.weightFormat,
                                       program.epsFormat);

    std::vector<std::size_t> compute;
    std::vector<std::size_t> base;
    std::vector<bool> int16;
    std::size_t total = 0;
    std::size_t lane = program.inputDim();
    const std::int64_t w_abs = -kernel.weight.rawMin();
    const std::int64_t a_abs = -kernel.activation.rawMin();
    for (std::size_t oi = 0; oi < program.ops.size(); ++oi) {
        const auto &op = program.ops[oi];
        lane = std::max({lane, op.inSize, op.outSize});
        if (!op.isCompute())
            continue;
        compute.push_back(oi);
        base.push_back(total);
        total += op.bank.outDim * op.bank.inDim;
        // The runner's int16 madd eligibility rule.
        int16.push_back(w_abs <= INT16_MAX && a_abs <= INT16_MAX &&
                        static_cast<std::int64_t>(op.bank.inDim) <=
                            INT32_MAX / (w_abs * a_abs));
    }
    out.note("replay.weights_per_round", std::to_string(total));

    // grng: one round's eps through the generator's fused fixed path
    // (the draw's refill path), falling back to fill() + quantize.
    for (const char *id : {"rlf", "philox"}) {
        auto gen = grng::makeGenerator(id, derive(seed, 11));
        kern::AlignedVector<std::int32_t> eps(total);
        std::vector<double> real(total);
        const double us = medianUs(20, [&] {
            tracer.time("grng.fill", [&] {
                if (!gen->fillFixed(eps.data(), total, program.epsFormat))
                    gen->fill(real.data(), total);
            });
        });
        out.add(std::string("grng.") + id + ".eps_per_s",
                static_cast<double>(total) / (us * 1e-6), "eps/s");
    }

    // accel.draw: fused sample + int16 pack over every compute op.
    auto gen = grng::makeGenerator("rlf", derive(seed, 12));
    accel::WeightGenerator wgen(kernel, gen.get());
    kern::AlignedVector<std::int32_t> arena(total);
    kern::AlignedVector<std::int16_t> arena16(total);
    auto draw = [&] {
        for (std::size_t c = 0; c < compute.size(); ++c) {
            const auto &bank = program.ops[compute[c]].bank;
            const std::size_t n = bank.outDim * bank.inDim;
            wgen.sampleBlockFused(bank.muWeight.data(),
                                  bank.sigmaWeight.data(),
                                  arena.data() + base[c], n);
            if (int16[c])
                ops.packInt16(arena.data() + base[c],
                              arena16.data() + base[c], n);
        }
    };
    const double draw_us = medianUs(20, [&] {
        tracer.time("accel.draw", draw);
    });
    out.add("accel.draw.us", draw_us, "us");

    // accel.kernels: quantize 256 images, then each op's GEMM at
    // b1 / b4 / b256 on activations from a real forward pass.
    constexpr std::size_t kMaxB = 256;
    const std::size_t tile =
        accel::BatchedRunner(program, config, gen.get()).imageTile();
    std::vector<kern::AlignedVector<std::int32_t>> acts(
        compute.size() + 1, kern::AlignedVector<std::int32_t>(kMaxB * lane));
    kern::AlignedVector<std::int16_t> acts16(kMaxB * lane);
    const int afrac = kernel.activation.fracBits();
    const auto amin = static_cast<std::int32_t>(kernel.activation.rawMin());
    const auto amax = static_cast<std::int32_t>(kernel.activation.rawMax());
    auto quantize = [&] {
        for (std::size_t b = 0; b < kMaxB; ++b)
            ops.quantizeFloat(images + b * kDim, acts[0].data() + b * lane,
                              kDim, afrac, amin, amax);
    };
    out.add("accel.kernels.quant.us.b256",
            medianUs(20, [&] { tracer.time("accel.kernels.quant", quantize); }),
            "us");
    auto gemm = [&](std::size_t c, std::size_t images_n) {
        const auto &op = program.ops[compute[c]];
        kern::GemmArgs args;
        args.weights = arena.data() + base[c];
        args.ldw = op.bank.inDim;
        args.lda = lane;
        args.bias = op.bank.muBias.data();
        args.outNeuronStride = 1;
        args.outImageStride = lane;
        args.inDim = op.bank.inDim;
        args.outDim = op.bank.outDim;
        args.finish.biasShift = kernel.activation.fracBits();
        args.finish.outShift = kernel.weight.fracBits();
        args.finish.outMin = amin;
        args.finish.outMax = amax;
        args.finish.relu = op.relu;
        if (int16[c])
            args.weights16 = arena16.data() + base[c];
        for (std::size_t b0 = 0; b0 < images_n; b0 += tile) {
            args.acts = acts[c].data() + b0 * lane;
            args.acts16 = int16[c] ? acts16.data() + b0 * lane : nullptr;
            args.out = acts[c + 1].data() + b0 * lane;
            args.images = std::min(tile, images_n - b0);
            ops.gemmBatch(args);
        }
    };
    double gemm_us_b256 = 0.0;
    double macs_b256 = 0.0;
    for (std::size_t c = 0; c < compute.size(); ++c) {
        const auto &op = program.ops[compute[c]];
        for (std::size_t b = 0; b < kMaxB; ++b)
            ops.packInt16(acts[c].data() + b * lane,
                          acts16.data() + b * lane, op.bank.inDim);
        for (const std::size_t b : {std::size_t{1}, std::size_t{4}, kMaxB}) {
            const int reps = b == kMaxB ? 10 : 100;
            const double us = medianUs(reps, [&] {
                tracer.time("accel.kernels.gemm", [&] { gemm(c, b); });
            });
            out.add("accel.kernels.gemm.us.dense" + std::to_string(c) +
                        ".b" + std::to_string(b),
                    us, "us");
            if (b == kMaxB) {
                gemm_us_b256 += us;
                macs_b256 += static_cast<double>(
                    kMaxB * op.bank.inDim * op.bank.outDim);
            }
        }
    }
    out.add("accel.kernels.gemm.gmacs.b256",
            macs_b256 / (gemm_us_b256 * 1e-6) * 1e-9, "GMAC/s");

    // accel.batched_runner: one MC round (draw + quantize + GEMMs).
    accel::BatchedRunner runner(program, config, gen.get());
    std::size_t max_batch = kMaxB;
    for (const PassShape &p : passes)
        max_batch = std::max(max_batch, p.batch);
    std::vector<std::int64_t> raw(max_batch * program.outputDim());
    auto roundUs = [&](std::size_t b) {
        return medianUs(b >= 64 ? 10 : 40, [&] {
            tracer.time("accel.round", [&] {
                runner.runRoundBatch(images, b, kDim, raw.data());
            });
        });
    };
    for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                                std::size_t{64}, kMaxB})
        out.add("accel.round.us.b" + std::to_string(b), roundUs(b), "us");
    auto ratio = [](double a, double b) { return a / b; };
    auto minus = [](double a, double b) { return a - b; };
    for (const std::size_t b : {std::size_t{1}, kMaxB})
        out.add("accel.draw.share.b" + std::to_string(b),
                pairedMedian(20, draw, [&] {
                    runner.runRoundBatch(images, b, kDim, raw.data());
                }, ratio),
                "fraction");

    // accel.mc_engine: passes at the workload's shapes (0 = this
    // workload runs no pass at that T).
    for (const int t : {8, 16, 32}) {
        const auto it = std::find_if(passes.begin(), passes.end(),
                                     [&](const PassShape &p) {
                                         return p.t == t;
                                     });
        double us = 0.0;
        if (it != passes.end()) {
            auto engine = makeEngine(program, config, t, it->threads,
                                     derive(seed, 13));
            us = medianUs(5, [&] {
                tracer.time("accel.mc_engine",
                            [&] { runPass(*engine, images, *it); });
            });
        }
        out.add("accel.pass.us.t" + std::to_string(t), us, "us");
        out.add("accel.pass.batch.t" + std::to_string(t),
                it == passes.end() ? 0.0 : static_cast<double>(it->batch),
                "images");
    }

    // Reduction: a single-threaded fixed-T pass at the main shape minus
    // T rounds at the same batch.
    double reduce_us = 0.0;
    double overhead_us = 0.0;
    if (!passes.empty()) {
        const PassShape &main = passes.front();
        PassShape fixed = main;
        fixed.adaptive = false;
        fixed.threads = 1;
        auto single = makeEngine(program, config, main.t, 1, derive(seed, 13));
        reduce_us = pairedMedian(6, [&] { runPass(*single, images, fixed); },
                                 [&] {
                                     for (int r = 0; r < main.t; ++r)
                                         runner.runRoundBatch(images,
                                                              main.batch, kDim,
                                                              raw.data());
                                 },
                                 minus);

        // serve.session: run() around the engine pass at the main shape.
        if (session_opts) {
            serve::SessionOptions so = *session_opts;
            so.threads = main.threads;
            auto session = serve::InferenceSession::Builder()
                               .program(program)
                               .accelerator(config)
                               .options(so)
                               .build();
            auto request =
                serve::InferenceRequest::borrow(images, main.batch, kDim);
            request.mcSamples = main.t;
            session->run(request); // builds the per-T engine
            auto engine =
                makeEngine(program, config, main.t, main.threads, *so.seed);
            overhead_us = pairedMedian(
                6,
                [&] {
                    tracer.time("serve.session.run",
                                [&] { session->run(request); });
                },
                [&] { runPass(*engine, images, main); }, minus);
        }
    }
    out.add("accel.reduce.us", reduce_us, "us");
    out.add("session.overhead_us", overhead_us, "us");
}

/** Per-layer metrics of layers a workload does not run read 0. */
void
addZeros(RunResult &out,
         const std::vector<std::pair<const char *, const char *>> &metrics)
{
    for (const auto &[name, unit] : metrics)
        out.add(name, 0.0, unit);
}

/** The serving layers, which only the online workloads run. */
const std::vector<std::pair<const char *, const char *>> kServingZeros = {
    {"session.held_frac", "fraction"},
    {"session.coalesced_frac", "fraction"},
    {"server.us.p50", "us"},
    {"server.us.p99", "us"},
    {"server.reject_frac", "fraction"},
    {"server.shard_imbalance", "ratio"},
    {"net.us.p50", "us"},
    {"net.us.p99", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"loadgen.late_ms.p99", "ms"},
    {"loadgen.backlog.max", "requests"},
    {"accel.adaptive.deadline_exit_frac", "fraction"},
};

/** The trainer layer, which only train-batched runs. */
const std::vector<std::pair<const char *, const char *>> kTrainZeros = {
    {"bnn.fwdbwd_ms", "ms"},
    {"bnn.step_ms", "ms"},
    {"bnn.zero_ms", "ms"},
};

/** Write the run's spans where asked and note how many there were. */
void
finishTrace(const Tracer &tracer, const RunArgs &args, RunResult &out)
{
    if (!args.traceOut.empty() && !tracer.writeJsonl(args.traceOut))
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     args.traceOut.c_str());
    out.note("trace.spans", std::to_string(tracer.size()));
}

void
addSetupMetrics(RunResult &out, const std::vector<double> &a,
                const std::vector<double> &b, const std::vector<double> &c)
{
    out.add("setup.compile_ms", median(a), "ms");
    out.add("setup.start_ms", median(b), "ms");
    out.add("setup.first_ms", median(c), "ms");
}

// ------------------------------------------------------------- serving

/** A discrete distribution over small integers whose weights are
 *  multiples of 1/kMixBlock. */
constexpr std::size_t kMixBlock = 20;

struct Mix
{
    std::vector<int> values;
    std::vector<double> weights;

    double
    mean() const
    {
        double m = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i)
            m += values[i] * weights[i];
        return m;
    }

    /** `n` draws, stratified: every block of kMixBlock consecutive
     *  draws holds each value exactly weight x kMixBlock times, in a
     *  seeded random order. A run's share of rare heavy requests then
     *  does not vary with the seed, which would move the tail more
     *  than any code change. */
    std::vector<int>
    deck(Rng &rng, std::size_t n) const
    {
        std::vector<int> block;
        for (std::size_t i = 0; i < values.size(); ++i)
            block.insert(block.end(),
                         static_cast<std::size_t>(
                             std::lround(weights[i] * kMixBlock)),
                         values[i]);
        std::vector<int> out;
        while (out.size() < n) {
            rng.shuffle(block);
            out.insert(out.end(), block.begin(), block.end());
        }
        out.resize(n);
        return out;
    }
};

struct ServingSpec
{
    std::size_t shards = 1;
    bool adaptive = false;
    /** Open-loop arrival rate of the latency phase, requests/s. */
    double nominalRate = 0.0;
    /** Capacity limit on the scheduled-send p95, ms. */
    double p95LimitMs = 0.0;
    /** Hold budget every request carries (0 = none). */
    std::int64_t deadlineMicros = 0;
    Mix t;
    Mix images;
    /** Ladder rung the capacity search starts from: near the parent's
     *  capacity, so the search usually ends within its probe budget. */
    int firstRung = 12;
};

/** online-mixed: batched mixed-T requests with 30 ms holds and
 *  adaptive exit over 2 shards. The nominal rate is half the parent's
 *  measured capacity_rps (~111 req/s under the p95 <= 300 ms limit used
 *  here), fixed once; the ladder starts at rung 14 (~109 req/s), near
 *  that capacity. */
const ServingSpec kOnlineMixed{2, true, 55.0, 300.0, 30000,
                               {{8, 32}, {0.6, 0.4}},
                               {{1, 8, 64}, {0.7, 0.25, 0.05}}, 14};
constexpr std::size_t kConnections = 4;
/** Timed server set-ups before the first phase, and before each later
 *  phase. Each takes ~15 ms; setup_s is the median of all of them. */
constexpr int kServingSetupReps = 16;
constexpr int kPhaseSetupReps = 4;
/** Shares of --seconds an untraced serving run spends at the nominal
 *  rate and on each capacity probe (a search takes 4-6 probes when the
 *  capacity is near its first rung; more only when it has moved far). */
constexpr double kNominalShare = 0.5;
constexpr double kProbeShare = 0.125;

struct RefPrediction
{
    std::uint32_t predicted = 0;
    std::uint32_t achieved = 0;
    std::uint8_t exit = 0;
    std::vector<float> probs;
};

/** Reference predictions: T -> per pool image, from run(). */
using RefTable = std::map<int, std::vector<RefPrediction>>;

bool
matches(const RefPrediction &ref, const net::WirePrediction &wp)
{
    return ref.predicted == wp.predicted &&
        ref.achieved == wp.achievedSamples && ref.exit == wp.exitReason &&
        ref.probs.size() == wp.probs.size() &&
        std::memcmp(ref.probs.data(), wp.probs.data(),
                    ref.probs.size() * sizeof(float)) == 0;
}

struct RequestSpec
{
    int t = 8;
    std::vector<std::uint32_t> images;
};

/** One open-loop phase at one rate, with its output checks. */
struct Phase
{
    double rate = 0.0;
    std::vector<RequestSpec> requests;
    LoadReport report;
    std::size_t ok = 0, errors = 0, lost = 0, mismatches = 0;
    std::size_t predictions = 0, deadlineExits = 0, correct = 0;
    double rounds = 0.0, budgetRounds = 0.0;
    std::vector<double> latMs;
    std::vector<double> encodeUs;

    double p95() const { return quantile(latMs, 0.95); }
    bool
    passes(double limit_ms) const
    {
        return lost == 0 && errors == 0 && p95() <= limit_ms &&
            !report.backlogGrowing(8);
    }
};

class ServingBench
{
  public:
    ServingBench(const ServingSpec &spec, const RunArgs &args)
        : spec_(spec), args_(args)
    {
    }

    RunResult run();

  private:
    serve::SessionOptions sessionOptions() const;
    /** Fixture, kServingSetupReps timed server set-ups (the last one
     *  serves the first phase), reference outputs. */
    void setUp();
    /** `reps` timed set-ups, each: compile, build and start a server,
     *  first response. The last server stays up. Every phase runs on a
     *  freshly set-up server, so the set-up repetitions are spread over
     *  the whole run. */
    void startServer(int reps = kPhaseSetupReps);
    Phase phase(double rate, double seconds, std::uint64_t seed,
                Tracer *tracer);
    void waitIdle() const;
    /** Adds the serving layers' metrics; returns the mean images per
     *  engine pass. */
    double addServingLayers(const Phase &p,
                            const serve::ServerStats &before,
                            const serve::ServerStats &after,
                            RunResult &out);

    const ServingSpec &spec_;
    const RunArgs &args_;
    Fixture fx_;
    accel::QuantizedProgram program_;
    std::unique_ptr<serve::Server> server_;
    RefTable ref_;
    std::vector<double> compileMs_, startMs_, firstMs_, setupS_;
};

serve::SessionOptions
ServingBench::sessionOptions() const
{
    serve::SessionOptions so;
    so.mode = serve::ExecMode::Throughput;
    so.threads = 1;
    so.seed = derive(args_.seed, 4);
    so.mcSamples = spec_.t.values.front();
    if (spec_.adaptive)
        so.adaptive = adaptivePolicy();
    return so;
}

void
ServingBench::startServer(int reps)
{
    serve::ServerOptions so;
    so.shards = spec_.shards;
    so.session = sessionOptions();
    for (int rep = 0; rep < reps; ++rep) {
        server_.reset(); // the previous server's teardown is not set-up
        const std::int64_t t0 = nowNs();
        program_ = accel::compile(*fx_.net, fx_.config);
        const std::int64_t t1 = nowNs();
        server_ = std::make_unique<serve::Server>(program_, fx_.config, so);
        std::string error;
        if (!server_->start(error))
            throw std::runtime_error("server start: " + error);
        const std::int64_t t2 = nowNs();
        serve::Client client;
        if (!client.connect("127.0.0.1", server_->port(), error))
            throw std::runtime_error("connect: " + error);
        serve::Client::Options opts;
        // Under adaptive exit the first response runs exactly the
        // minimum rounds, so its work does not hang on how confident the
        // seed's model is about one image.
        opts.mcSamples = static_cast<std::uint32_t>(
            spec_.adaptive ? adaptivePolicy().minSamples
                           : spec_.t.values.front());
        const auto reply = client.classify(fx_.pool(), 1, kDim, opts);
        if (!reply.ok())
            throw std::runtime_error("first request failed: " + reply.message);
        const std::int64_t t3 = nowNs();
        compileMs_.push_back(msBetween(t0, t1));
        startMs_.push_back(msBetween(t1, t2));
        firstMs_.push_back(msBetween(t2, t3));
        setupS_.push_back(msBetween(t0, t3) * 1e-3);
    }
}

void
ServingBench::setUp()
{
    fx_ = makeFixture(args_.seed);
    startServer(kServingSetupReps);

    // Reference outputs from in-process run(), untimed.
    auto session = serve::InferenceSession::Builder()
                       .program(program_)
                       .accelerator(fx_.config)
                       .options(sessionOptions())
                       .threads(2)
                       .build();
    for (const int t : spec_.t.values) {
        auto request =
            serve::InferenceRequest::borrow(fx_.pool(), kPoolImages, kDim);
        request.mcSamples = t;
        const auto result = session->run(request);
        auto &table = ref_[t];
        for (const auto &p : result.predictions) {
            RefPrediction r;
            r.predicted = static_cast<std::uint32_t>(p.predicted);
            r.achieved = static_cast<std::uint32_t>(p.achievedSamples);
            r.exit = static_cast<std::uint8_t>(p.exitReason);
            r.probs = p.probs;
            table.push_back(std::move(r));
        }
    }
}

Phase
ServingBench::phase(double rate, double seconds, std::uint64_t seed,
                    Tracer *tracer)
{
    Phase p;
    p.rate = rate;
    Rng rng(seed);
    const auto arrivals = poissonArrivals(rate, seconds, derive(seed, 1));
    const std::vector<int> ts = spec_.t.deck(rng, arrivals.size());
    const std::vector<int> counts = spec_.images.deck(rng, arrivals.size());
    std::vector<ScheduledRequest> schedule;
    schedule.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        RequestSpec req;
        req.t = ts[i];
        const int n = counts[i];
        net::WireClassifyRequest wire;
        wire.id = i + 1;
        wire.mcSamples = static_cast<std::uint32_t>(req.t);
        wire.deadlineMicros = spec_.deadlineMicros;
        wire.count = static_cast<std::uint32_t>(n);
        wire.dim = static_cast<std::uint32_t>(kDim);
        wire.features.reserve(n * kDim);
        for (int j = 0; j < n; ++j) {
            const auto img =
                static_cast<std::uint32_t>(rng.uniformInt(kPoolImages));
            req.images.push_back(img);
            const float *x = fx_.pool() + img * kDim;
            wire.features.insert(wire.features.end(), x, x + kDim);
        }
        ScheduledRequest sr;
        sr.atNs = arrivals[i];
        sr.connection = static_cast<std::uint32_t>(rng.uniformInt(kConnections));
        const std::int64_t e0 = nowNs();
        sr.frame = net::encodeClassifyRequest(wire);
        const std::int64_t e1 = nowNs();
        if (tracer)
            tracer->record("net.encode", e0, e1, 0, i + 1);
        p.encodeUs.push_back(static_cast<double>(e1 - e0) * 1e-3);
        schedule.push_back(std::move(sr));
        p.requests.push_back(std::move(req));
    }

    LoadOptions lo;
    lo.port = server_->port();
    lo.connections = kConnections;
    lo.drainSeconds = 3.0;
    lo.tracer = tracer;
    p.report = runOpenLoop(schedule, lo);
    if (!p.report.error.empty())
        throw std::runtime_error("load generator: " + p.report.error);
    waitIdle();

    for (std::size_t i = 0; i < p.requests.size(); ++i) {
        const RequestOutcome &o = p.report.outcomes[i];
        const RequestSpec &req = p.requests[i];
        if (o.status == OutcomeStatus::Error) {
            ++p.errors;
            continue;
        }
        if (o.status != OutcomeStatus::Ok) {
            ++p.lost;
            continue;
        }
        ++p.ok;
        p.latMs.push_back(o.scheduledLatencyMs());
        const auto &preds = o.response.predictions;
        if (preds.size() != req.images.size()) {
            ++p.mismatches;
            continue;
        }
        const auto &table = ref_.at(req.t);
        bool same = true;
        for (std::size_t j = 0; j < preds.size(); ++j) {
            const auto img = req.images[j];
            ++p.predictions;
            p.rounds += preds[j].achievedSamples;
            p.budgetRounds += req.t;
            p.correct += static_cast<int>(preds[j].predicted) == fx_.label(img);
            if (preds[j].exitReason ==
                static_cast<std::uint8_t>(accel::McExitReason::Deadline))
                ++p.deadlineExits; // clock-dependent: counted, not compared
            else
                same = same && matches(table[img], preds[j]);
        }
        p.mismatches += same ? 0 : 1;
    }
    return p;
}

void
ServingBench::waitIdle() const
{
    const std::int64_t give_up = nowNs() + 10'000'000'000;
    while (nowNs() < give_up) {
        bool idle = true;
        for (const auto &s : server_->stats().shards)
            idle = idle && s.queueDepth == 0;
        if (idle)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

double
ServingBench::addServingLayers(const Phase &p,
                               const serve::ServerStats &before,
                               const serve::ServerStats &after,
                               RunResult &out)
{
    std::vector<double> server_us;
    std::vector<double> net_us;
    std::vector<double> decode_us;
    for (const RequestOutcome &o : p.report.outcomes) {
        if (o.status != OutcomeStatus::Ok)
            continue;
        server_us.push_back(o.response.serverMicros);
        net_us.push_back(static_cast<double>(o.answeredNs - o.sendStartNs) *
                             1e-3 -
                         o.response.serverMicros);
        decode_us.push_back(o.decodeUs);
    }
    double passes = 0, images = 0, held = 0, coalesced = 0;
    double max_req = 0, min_req = 1e300;
    std::uint64_t requests = 0, rejects = 0;
    for (std::size_t s = 0; s < after.shards.size(); ++s) {
        const auto &a = after.shards[s];
        const auto &b = before.shards[s];
        passes += static_cast<double>(a.passes - b.passes);
        images += static_cast<double>(a.images - b.images);
        held += static_cast<double>(a.heldPasses - b.heldPasses);
        coalesced += static_cast<double>(a.coalescedPasses - b.coalescedPasses);
        const double req = static_cast<double>(a.requests - b.requests);
        max_req = std::max(max_req, req);
        min_req = std::min(min_req, req);
        requests += a.requests - b.requests;
        rejects += a.rejects - b.rejects;
    }
    passes = std::max(passes, 1.0);
    out.add("session.merge_images_per_pass", images / passes, "images");
    out.add("session.held_frac", held / passes, "fraction");
    out.add("session.coalesced_frac", coalesced / passes, "fraction");
    out.add("server.us.p50", quantile(server_us, 0.5), "us");
    out.add("server.us.p99", quantile(server_us, 0.99), "us");
    out.add("server.reject_frac",
            static_cast<double>(rejects) /
                static_cast<double>(std::max<std::uint64_t>(
                    requests + rejects, 1)),
            "fraction");
    out.add("server.shard_imbalance", max_req / std::max(min_req, 1.0),
            "ratio");
    out.add("net.us.p50", quantile(net_us, 0.5), "us");
    out.add("net.us.p99", quantile(net_us, 0.99), "us");
    out.add("net.encode_us", median(p.encodeUs), "us");
    out.add("net.decode_us", median(decode_us), "us");
    out.add("loadgen.late_ms.p99", quantile(p.report.lateMs, 0.99), "ms");
    out.add("loadgen.backlog.max", p.report.maxBacklog(), "requests");
    out.add("accel.adaptive.rounds_frac",
            p.rounds / std::max(p.budgetRounds, 1.0), "fraction");
    out.add("accel.adaptive.deadline_exit_frac",
            static_cast<double>(p.deadlineExits) /
                static_cast<double>(std::max<std::size_t>(p.predictions, 1)),
            "fraction");
    return images / passes;
}

RunResult
ServingBench::run()
{
    RunResult out;
    setUp();
    const double nominal_s = args_.seconds * (args_.trace ? 0.35 : kNominalShare);

    if (args_.trace) {
        // Untraced then traced latency phases at the nominal rate: the
        // difference is the tracing overhead. Then the layer replay.
        const Phase plain =
            phase(spec_.nominalRate, nominal_s, derive(args_.seed, 20),
                  nullptr);
        Tracer tracer(true);
        startServer();
        const auto before = server_->stats();
        const Phase traced =
            phase(spec_.nominalRate, nominal_s, derive(args_.seed, 20),
                  &tracer);
        const auto after = server_->stats();
        out.add("trace.overhead_pct",
                100.0 * (median(traced.latMs) / median(plain.latMs) - 1.0),
                "%");
        const double merge =
            std::max(1.0, std::round(addServingLayers(traced, before,
                                                      after, out)));
        for (const Phase *p : {&plain, &traced}) {
            out.attempted += p->requests.size();
            out.failed += p->errors + p->lost + p->mismatches;
        }
        std::vector<PassShape> shapes;
        for (const int t : spec_.t.values)
            shapes.push_back({t, static_cast<std::size_t>(merge),
                              spec_.adaptive, 1});
        // The main shape: the largest T this workload serves.
        std::reverse(shapes.begin(), shapes.end());
        const serve::SessionOptions so = sessionOptions();
        replayLayers(program_, fx_.config, fx_.pool(), args_.seed, shapes,
                     &so, tracer, out);
        addZeros(out, kTrainZeros);
        addSetupMetrics(out, compileMs_, startMs_, firstMs_);
        finishTrace(tracer, args_, out);
        out.note("setup.reps_s", joined(setupS_));
        out.correct = out.failed == 0;
        return out;
    }

    // Latency at the nominal rate. Peak memory covers this phase only:
    // the fixture and reference runs before it are not the workload,
    // and the capacity probes past the knee buffer backlogs that no
    // steady deployment would hold.
    const bool rss_reset = resetPeakRss();
    const Phase nominal =
        phase(spec_.nominalRate, nominal_s, derive(args_.seed, 20), nullptr);
    const double rss_mb = peakRssMb();

    // Capacity: the highest rung of a geometric ladder (5% steps from
    // the nominal rate, kLadderEnd rungs either way) whose p95 meets the
    // limit with every request answered and no growing backlog. The
    // search starts at the workload's first rung and gallops in the
    // direction the outcome points, its step doubling up to kMaxStep
    // rungs, until a pass and a fail bracket the limit; then it splits
    // the gap. Rung 0 is the nominal phase itself. A limit beyond either
    // end of the ladder fails the run: the figure would be the ladder's
    // end, not a measurement.
    constexpr int kLadderEnd = 60; // 1.05^60: ~19x the nominal rate
    constexpr int kMaxStep = 8;    // 1.05^8: a probe overshoots <= 1.5x
    constexpr int kMaxProbes = 5;
    const double probe_s = std::max(1.0, args_.seconds * kProbeShare);
    auto rung = [&](int k) { return spec_.nominalRate * std::pow(1.05, k); };
    std::map<int, Phase> tested;
    auto passes = [&](int k) {
        if (k == 0)
            return nominal.passes(spec_.p95LimitMs);
        startServer();
        tested.emplace(k, phase(rung(k), probe_s,
                                derive(args_.seed, 1000 + k), nullptr));
        return tested.at(k).passes(spec_.p95LimitMs);
    };
    constexpr int kNone = std::numeric_limits<int>::min();
    int lo = kNone, hi = kNone; // highest passing / lowest failing rung
    int probes = 0;
    bool off_ladder = false;
    for (int k = spec_.firstRung, step = 1;;
         step = std::min(2 * step, kMaxStep)) {
        probes += k != 0;
        const bool pass = passes(k);
        (pass ? lo : hi) = k;
        if (lo != kNone && hi != kNone)
            break;
        if (k == (pass ? kLadderEnd : -kLadderEnd)) {
            off_ladder = true;
            break;
        }
        k = std::clamp(k + (pass ? step : -step), -kLadderEnd, kLadderEnd);
    }
    // Split the bracket within kMaxProbes, and at least twice when the
    // gallop alone used them up.
    const int split_until = std::max(kMaxProbes, probes + 2);
    while (lo != kNone && hi != kNone && hi - lo > 1 && probes < split_until) {
        const int mid = (lo + hi) / 2;
        probes += mid != 0;
        (passes(mid) ? lo : hi) = mid;
    }

    // The pass/fail call on one short probe flips with the host's
    // stalls, so within a bracket the capacity is read off a fit: ln p95
    // against ln rate over the probes within two rungs of the bracket
    // (probing its neighbours until there are kFitPoints), solved for
    // the limit and kept within one rung of the bracket. Off the
    // ladder, the figure is the ladder's end and the run fails.
    double capacity = lo != kNone ? rung(lo) : rung(hi - 1);
    if (lo != kNone && hi != kNone) {
        constexpr std::size_t kFitPoints = 4;
        const int max_total = std::max(kMaxProbes + 1, probes);
        auto nearby = [&](int k) { return k >= lo - 2 && k <= hi + 2; };
        auto fit_points = [&] {
            return std::count_if(tested.begin(), tested.end(),
                                 [&](const auto &kv) {
                                     return nearby(kv.first);
                                 });
        };
        for (const int k : {hi + 1, lo - 1, hi + 2, lo - 2}) {
            if (static_cast<std::size_t>(fit_points()) >= kFitPoints ||
                probes >= max_total)
                break;
            if (k != 0 && !tested.count(k)) {
                ++probes;
                passes(k);
            }
        }
        double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
        for (const auto &[k, p] : tested) {
            if (!nearby(k) || p.latMs.empty())
                continue;
            const double x = std::log(rung(k));
            const double y = std::log(p.p95());
            n += 1;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        if (n >= 2 && slope > 0) {
            const double icept = (sy - slope * sx) / n;
            const double est =
                std::exp((std::log(spec_.p95LimitMs) - icept) / slope);
            capacity = std::clamp(est, rung(lo - 1), rung(hi + 1));
        }
    }

    out.attempted = nominal.requests.size();
    out.failed = nominal.errors + nominal.lost + nominal.mismatches;
    std::size_t ladder_mismatch = 0;
    for (const auto &[k, p] : tested) {
        out.attempted += p.requests.size();
        out.failed += p.errors + p.mismatches;
        ladder_mismatch += p.mismatches;
    }
    std::size_t deadline_exits = nominal.deadlineExits;
    for (const auto &[k, p] : tested)
        deadline_exits += p.deadlineExits;

    out.add("setup_s", median(setupS_), "s");
    out.add("p50_ms", quantile(nominal.latMs, 0.5), "ms");
    out.add("p95_ms", nominal.p95(), "ms");
    out.add("capacity_rps", capacity, "req/s");
    // Work requested at the capacity rate: the mix's mean images per
    // request, and its mean T budget per image.
    out.add("img_per_s", capacity * spec_.images.mean(), "img/s");
    out.add("samples_per_s",
            capacity * spec_.images.mean() * spec_.t.mean(), "samples/s");
    out.add("accuracy",
            static_cast<double>(nominal.correct) /
                static_cast<double>(std::max<std::size_t>(nominal.predictions, 1)),
            "fraction");
    out.add("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
            "fraction");
    out.add("rss_mb", rss_mb, "MB");

    out.note("nominal.rate_rps", fmt(spec_.nominalRate));
    out.note("nominal.requests", std::to_string(nominal.requests.size()));
    out.note("nominal.mismatches", std::to_string(nominal.mismatches));
    out.note("ladder.mismatches", std::to_string(ladder_mismatch));
    out.note("deadline_exits_counted_not_compared",
             std::to_string(deadline_exits));
    std::string ladder;
    for (const auto &[k, p] : tested)
        ladder += fmt(p.rate) +
            (p.passes(spec_.p95LimitMs) ? ":pass(p95 " : ":fail(p95 ") +
            fmt(p.p95()) + "ms) ";
    out.note("ladder", ladder);
    out.note("p95_limit_ms", fmt(spec_.p95LimitMs));
    out.note("capacity.off_ladder", off_ladder ? "yes" : "no");
    noteRssScope(out, rss_reset, "the nominal phase");
    out.note("setup.reps_s", joined(setupS_));
    out.note("setup.median_ms.compile_start_first",
             joined({median(compileMs_), median(startMs_), median(firstMs_)}));
    out.correct = out.failed == 0 && !off_ladder;
    return out;
}

// --------------------------------------------------------- offline-bulk

constexpr std::size_t kBulkBatch = 256;
constexpr int kBulkT = 16;
/** Single-threaded, like train-batched: with a second engine thread
 *  every round waits on a worker wake-up, and on a shared VM those
 *  stalls moved the per-call p95 by a third between runs. */
constexpr std::size_t kBulkThreads = 1;
/** Images per run whose bulk prediction is re-checked at B=1. */
constexpr std::size_t kBulkChecks = 24;

RunResult
runOfflineBulk(const RunArgs &args)
{
    RunResult out;
    Fixture fx = makeFixture(args.seed);
    // rss_mb covers set-ups and calls, not the fixture's training.
    const bool rss_reset = resetPeakRss();
    serve::SessionOptions so;
    so.mode = serve::ExecMode::Throughput;
    so.threads = kBulkThreads;
    so.mcSamples = kBulkT;
    so.seed = derive(args.seed, 4);

    Rng rng(derive(args.seed, 30));
    auto pick = [&] {
        std::vector<std::uint32_t> idx(kBulkBatch);
        for (auto &i : idx)
            i = static_cast<std::uint32_t>(rng.uniformInt(kPoolImages));
        return idx;
    };
    auto gather = [&](const std::vector<std::uint32_t> &idx) {
        std::vector<float> xs(idx.size() * kDim);
        for (std::size_t i = 0; i < idx.size(); ++i)
            std::memcpy(xs.data() + i * kDim, fx.pool() + idx[i] * kDim,
                        kDim * sizeof(float));
        return xs;
    };

    std::vector<double> compile_ms, start_ms, first_ms, setup_s;
    accel::QuantizedProgram program;
    std::unique_ptr<serve::InferenceSession> session;
    const std::vector<float> first_xs = gather(pick());
    // One timed set-up: compile, build the session, first result. Each
    // measured chunk runs on a freshly set-up session, so the set-up
    // repetitions are spread over the whole run.
    auto setUp = [&] {
        session.reset();
        const std::int64_t t0 = nowNs();
        program = accel::compile(*fx.net, fx.config);
        const std::int64_t t1 = nowNs();
        session = serve::InferenceSession::Builder()
                      .program(program)
                      .accelerator(fx.config)
                      .options(so)
                      .build();
        const std::int64_t t2 = nowNs();
        session->run(serve::InferenceRequest::borrow(first_xs.data(),
                                                     kBulkBatch, kDim));
        const std::int64_t t3 = nowNs();
        compile_ms.push_back(msBetween(t0, t1));
        start_ms.push_back(msBetween(t1, t2));
        first_ms.push_back(msBetween(t2, t3));
        setup_s.push_back(msBetween(t0, t3) * 1e-3);
    };

    // Each call keeps one seeded image's prediction for the B=1 check:
    // keeping them all would grow the resident set with the number of
    // calls, that is with the speed being measured.
    struct Kept
    {
        std::uint32_t image = 0;
        serve::Prediction pred;
    };
    std::vector<Kept> kept;
    std::size_t correct = 0, predictions = 0;
    Rng keep_rng(derive(args.seed, 31));
    auto measure = [&](double seconds, Tracer &tracer,
                       std::vector<double> &lat_ms) {
        double busy = 0.0;
        while (busy < seconds) {
            const std::vector<std::uint32_t> idx = pick();
            const std::vector<float> xs = gather(idx);
            serve::InferenceResult result;
            const double us = tracer.time("serve.session.run", [&] {
                result = session->run(serve::InferenceRequest::borrow(
                    xs.data(), kBulkBatch, kDim));
            });
            busy += us * 1e-6;
            lat_ms.push_back(us * 1e-3);
            for (std::size_t i = 0; i < kBulkBatch; ++i) {
                ++predictions;
                correct += static_cast<int>(result.predictions[i].predicted) ==
                    fx.label(idx[i]);
            }
            const std::size_t pos = keep_rng.uniformInt(kBulkBatch);
            kept.push_back({idx[pos], std::move(result.predictions[pos])});
        }
    };

    std::vector<double> lat_ms, chunk_mean_ms;
    Tracer tracer(args.trace);
    if (args.trace) {
        Tracer off(false);
        std::vector<double> plain_ms;
        setUp();
        measure(args.seconds * 0.3, off, plain_ms);
        setUp();
        measure(args.seconds * 0.3, tracer, lat_ms);
        out.add("trace.overhead_pct",
                100.0 * (median(lat_ms) / median(plain_ms) - 1.0), "%");
    } else {
        for (int chunk = 0; chunk < kChunks; ++chunk) {
            // Three set-ups per chunk (the last one serves it): setup_s
            // is the median of fifteen.
            for (int rep = 0; rep < 3; ++rep)
                setUp();
            std::vector<double> chunk_ms;
            measure(args.seconds / kChunks, tracer, chunk_ms);
            chunk_mean_ms.push_back(mean(chunk_ms));
            lat_ms.insert(lat_ms.end(), chunk_ms.begin(), chunk_ms.end());
        }
    }
    out.note("setup.reps_s", joined(setup_s));
    out.note("chunk_mean_ms", joined(chunk_mean_ms));

    // Outputs must not depend on batch composition: re-run a seeded
    // sample of the kept images alone and compare bit for bit.
    std::size_t mismatches = 0;
    Rng check_rng(derive(args.seed, 32));
    for (std::size_t k = 0; k < kBulkChecks; ++k) {
        const Kept &c = kept[check_rng.uniformInt(kept.size())];
        const auto single = session->run(serve::InferenceRequest::borrow(
            fx.pool() + c.image * kDim, 1, kDim));
        const auto &a = single.predictions.front();
        const auto &b = c.pred;
        const bool same = a.predicted == b.predicted &&
            a.probs.size() == b.probs.size() &&
            std::memcmp(a.probs.data(), b.probs.data(),
                        a.probs.size() * sizeof(float)) == 0;
        mismatches += same ? 0 : 1;
    }
    out.attempted = kept.size() + kBulkChecks;
    out.failed = mismatches;
    out.correct = mismatches == 0;
    out.note("calls", std::to_string(kept.size()));
    out.note("b1_checks", std::to_string(kBulkChecks));
    out.note("b1_mismatches", std::to_string(mismatches));

    if (args.trace) {
        replayLayers(program, fx.config, fx.pool(), args.seed,
                     {{kBulkT, kBulkBatch, false, kBulkThreads}}, &so, tracer,
                     out);
        const auto counters = session->counters();
        out.add("session.merge_images_per_pass",
                static_cast<double>(counters.images) /
                    static_cast<double>(std::max<std::uint64_t>(counters.passes, 1)),
                "images");
        addZeros(out, kServingZeros);
        addZeros(out, kTrainZeros);
        out.add("accel.adaptive.rounds_frac", 1.0, "fraction");
        addSetupMetrics(out, compile_ms, start_ms, first_ms);
        finishTrace(tracer, args, out);
        return out;
    }

    // Rates are work over measured time, i.e. at the mean call time, and
    // p50 is the median chunk's mean call time. A shared host can
    // alternate between two speeds in stretches of about a second; a
    // mean moves smoothly with the share of each, where the median call
    // jumps from one speed to the other.
    const double call_s = mean(lat_ms) * 1e-3;
    out.add("setup_s", median(setup_s), "s");
    out.add("p50_ms", median(chunk_mean_ms), "ms");
    out.add("p95_ms", quantile(lat_ms, 0.95), "ms");
    out.add("capacity_rps", 1.0 / call_s, "req/s");
    out.add("img_per_s", kBulkBatch / call_s, "img/s");
    out.add("samples_per_s", kBulkBatch * kBulkT / call_s, "samples/s");
    out.add("accuracy",
            static_cast<double>(correct) / static_cast<double>(predictions),
            "fraction");
    out.add("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
            "fraction");
    out.add("rss_mb", peakRssMb(), "MB");
    noteRssScope(out, rss_reset, "the set-ups and calls");
    return out;
}

// -------------------------------------------------------- train-batched

constexpr std::size_t kTrainImages = 2000;
constexpr std::size_t kTrainHeldOut = 1024;
constexpr std::size_t kTrainBatch = 32;
/** Accuracy is read after this many epochs, whatever the speed. */
constexpr std::size_t kAccuracyEpochs = 3;

/** One trainer with its data, mid-epoch. */
struct TrainState
{
    data::Dataset ds;
    std::unique_ptr<bnn::BayesianMlp> net;
    std::unique_ptr<bnn::BnnBatchTrainer> trainer;
    std::vector<std::size_t> order;
    Rng orderRng;
    std::size_t pos = 0;
    std::size_t epoch = 0;
};

RunResult
runTrainBatched(const RunArgs &args)
{
    RunResult out;
    const bool rss_reset = resetPeakRss();
    // Single-threaded: with a 2-thread pool every GEMM phase waits on a
    // worker wake-up, and on a shared VM those stalls moved the step
    // time's p95 by a third between runs, for a ~7% speed-up.
    bnn::BnnBatchedTrainConfig cfg;
    cfg.batchSize = kTrainBatch;
    cfg.estimator = bnn::BnnEstimator::LocalReparam;
    cfg.seed = derive(args.seed, 40);

    std::vector<double> data_ms, build_ms, first_ms, setup_s;
    std::size_t finite_steps = 0, steps = 0;
    auto step = [&](TrainState &st, Tracer &tracer, std::uint64_t parent) {
        const std::size_t *idx = st.order.data() + st.pos;
        double loss = 0.0, kl = 0.0;
        tracer.time("bnn.zero", [&] { st.trainer->zeroGrads(); }, parent);
        tracer.time("bnn.fwdbwd", [&] {
            loss = st.trainer->forwardBackward(st.ds.train.view(), idx,
                                               kTrainBatch);
        }, parent);
        tracer.time("bnn.apply", [&] {
            kl = st.trainer->applyKlAndStep(kTrainBatch, kTrainImages);
        }, parent);
        st.pos += kTrainBatch;
        ++steps;
        finite_steps += std::isfinite(loss) && std::isfinite(kl) ? 1 : 0;
    };

    // One timed set-up: data, trainer construction, first step. The
    // first is the trainer the run measures; later ones are rebuilt
    // between measured chunks and dropped, so the repetitions are
    // spread over the whole run.
    Tracer off(false);
    auto setUp = [&] {
        auto st = std::make_unique<TrainState>();
        const std::int64_t t0 = nowNs();
        data::SynthMnistConfig synth;
        synth.trainCount = kTrainImages;
        synth.testCount = kTrainHeldOut;
        synth.seed = derive(args.seed, 42);
        st->ds = data::makeSynthMnist(synth);
        const std::int64_t t1 = nowNs();
        Rng rng(derive(args.seed, 43));
        st->net = std::make_unique<bnn::BayesianMlp>(kLayers, rng, -4.0f);
        st->trainer = std::make_unique<bnn::BnnBatchTrainer>(*st->net, cfg);
        const std::int64_t t2 = nowNs();
        st->order.resize(kTrainImages);
        for (std::size_t i = 0; i < kTrainImages; ++i)
            st->order[i] = i;
        st->orderRng = Rng(derive(args.seed, 41));
        st->orderRng.shuffle(st->order);
        step(*st, off, 0);
        const std::int64_t t3 = nowNs();
        data_ms.push_back(msBetween(t0, t1));
        build_ms.push_back(msBetween(t1, t2));
        first_ms.push_back(msBetween(t2, t3));
        setup_s.push_back(msBetween(t0, t3) * 1e-3);
        return st;
    };
    const std::unique_ptr<TrainState> main = setUp();
    TrainState &st = *main;

    double accuracy = -1.0;
    auto evaluate = [&] {
        accel::AcceleratorConfig config;
        const auto program = accel::compile(*st.net, config);
        auto engine = makeEngine(program, config, 8, 2, derive(args.seed, 44));
        const auto view = st.ds.test.view();
        const auto preds =
            engine->classifyBatch(view.features, view.count, view.dim);
        std::size_t hit = 0;
        for (std::size_t i = 0; i < view.count; ++i)
            hit += preds[i] == static_cast<std::size_t>(view.labels[i]);
        return static_cast<double>(hit) / static_cast<double>(view.count);
    };

    // Appends each step's time (ms) to `lat` until `seconds` of steps ran.
    auto train = [&](double seconds, Tracer &tracer, std::vector<double> &lat) {
        double busy = 0.0;
        while (busy < seconds) {
            if (st.pos + kTrainBatch > kTrainImages) {
                // Drop the ragged tail so every step has one shape.
                st.pos = 0;
                ++st.epoch;
                if (st.epoch == kAccuracyEpochs && accuracy < 0)
                    accuracy = evaluate(); // untimed
                st.orderRng.shuffle(st.order);
            }
            const std::int64_t t0 = nowNs();
            const std::uint64_t root = tracer.reserve();
            step(st, tracer, root);
            const std::int64_t t1 = nowNs();
            tracer.recordAs(root, "bnn.step", t0, t1);
            const double ms = msBetween(t0, t1);
            busy += ms * 1e-3;
            lat.push_back(ms);
        }
    };
    steps = finite_steps = 0; // the set-up step is not measured

    Tracer tracer(args.trace);
    std::vector<double> step_ms, chunk_mean_ms;
    if (args.trace) {
        setUp();
        std::vector<double> plain_ms;
        train(args.seconds * 0.3, off, plain_ms);
        train(args.seconds * 0.3, tracer, step_ms);
        out.add("trace.overhead_pct",
                100.0 * (median(step_ms) / median(plain_ms) - 1.0), "%");
    } else {
        for (int chunk = 0; chunk < kChunks; ++chunk) {
            if (chunk > 0) {
                const std::size_t s0 = steps, f0 = finite_steps;
                setUp(); // timed, then dropped
                steps = s0;
                finite_steps = f0;
            }
            std::vector<double> chunk_ms;
            train(args.seconds / kChunks, off, chunk_ms);
            chunk_mean_ms.push_back(mean(chunk_ms));
            step_ms.insert(step_ms.end(), chunk_ms.begin(), chunk_ms.end());
        }
    }
    out.note("setup.reps_s", joined(setup_s));
    out.note("chunk_mean_ms", joined(chunk_mean_ms));
    if (accuracy < 0) {
        out.note("accuracy_after_epochs", std::to_string(st.epoch));
        accuracy = evaluate();
    } else {
        out.note("accuracy_after_epochs", std::to_string(kAccuracyEpochs));
    }

    out.attempted = steps;
    out.failed = steps - finite_steps;
    out.correct = out.failed == 0;
    out.note("steps", std::to_string(steps));
    out.note("nonfinite_losses", std::to_string(out.failed));

    if (args.trace) {
        out.add("bnn.fwdbwd_ms", median(tracer.durationsUs("bnn.fwdbwd")) * 1e-3, "ms");
        out.add("bnn.step_ms", median(tracer.durationsUs("bnn.apply")) * 1e-3, "ms");
        out.add("bnn.zero_ms", median(tracer.durationsUs("bnn.zero")) * 1e-3, "ms");
        out.add("setup.compile_ms", median(data_ms), "ms");
        out.add("setup.start_ms", median(build_ms), "ms");
        out.add("setup.first_ms", median(first_ms), "ms");
        // The held-out evaluation pass (T=8 over the held-out set) is
        // this workload's only engine pass.
        accel::AcceleratorConfig config;
        const auto program = accel::compile(*st.net, config);
        replayLayers(program, config, st.ds.test.features.data(),
                     args.seed, {{8, kTrainHeldOut, false, 2}}, nullptr,
                     tracer, out);
        addZeros(out, kServingZeros);
        out.add("session.merge_images_per_pass", 0.0, "images");
        out.add("accel.adaptive.rounds_frac", 1.0, "fraction");
        finishTrace(tracer, args, out);
        return out;
    }

    // Rates at the mean step time and p50 over chunk means, as in
    // offline-bulk.
    const double step_s = mean(step_ms) * 1e-3;
    out.add("setup_s", median(setup_s), "s");
    out.add("p50_ms", median(chunk_mean_ms), "ms");
    out.add("p95_ms", quantile(step_ms, 0.95), "ms");
    out.add("capacity_rps", 1.0 / step_s, "req/s");
    out.add("img_per_s", kTrainBatch / step_s, "img/s");
    out.add("samples_per_s", kTrainBatch / step_s, "samples/s");
    out.add("accuracy", accuracy, "fraction");
    out.add("ok_frac",
            static_cast<double>(finite_steps) /
                static_cast<double>(std::max<std::size_t>(steps, 1)),
            "fraction");
    out.add("rss_mb", peakRssMb(), "MB");
    noteRssScope(out, rss_reset, "the whole workload");
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "online-mixed", "offline-bulk", "train-batched"};
    return names;
}

RunResult
runWorkload(const RunArgs &args)
{
    RunResult out;
    if (args.workload == "online-mixed")
        out = ServingBench(kOnlineMixed, args).run();
    else if (args.workload == "offline-bulk")
        out = runOfflineBulk(args);
    else if (args.workload == "train-batched")
        out = runTrainBatched(args);
    else
        throw std::runtime_error("unknown workload " + args.workload);
    out.note("kernel_tier", serve::InferenceSession::kernelName());
    out.note("hardware_threads",
             std::to_string(std::thread::hardware_concurrency()));
    return out;
}

} // namespace perfbench
