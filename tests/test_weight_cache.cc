/**
 * @file
 * Tests for the cross-request weight-ensemble cache: a warm engine's
 * passes reproduce, byte for byte, a serial replay that draws every
 * round on a fresh BatchedRunner (rlf and philox, 1 and 3 threads,
 * whole-batch and gather rounds, shorter-T engines reusing a longer
 * one's rounds, rounds past the byte budget); sessions with equal
 * programs and seeds share one cache while any difference in the key
 * gets its own; armed weight bit-flips land on the restored copy, never
 * in the cache; and concurrent fills from two sessions agree.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/batched_runner.hh"
#include "accel/mc_engine.hh"
#include "accel/weight_cache.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "grng/registry.hh"
#include "nn/activations.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

AcceleratorConfig
smallConfig(int mc_samples)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

QuantizedProgram
mlpProgram(const std::vector<std::size_t> &sizes,
           const AcceleratorConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    bnn::BayesianMlp net(sizes, rng, -2.0f);
    return compile(net, config);
}

std::vector<float>
randomBatch(std::size_t count, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> xs(count * dim);
    for (auto &v : xs)
        v = static_cast<float>(rng.uniform());
    return xs;
}

McEngineConfig
engineConfig(const std::string &grng, std::size_t threads,
             std::uint64_t seed)
{
    McEngineConfig mc;
    mc.threads = threads;
    mc.generatorId = grng;
    mc.seedBase = seed;
    mc.backendId = "batched";
    mc.schedule = McSchedule::PerRound;
    return mc;
}

/**
 * The serial reproduction: round r drawn on a fresh BatchedRunner whose
 * stream is seeded roundSeed(seed, r), then softmaxed exactly as the
 * engine's reduction does. Returns count x rounds x outputDim per-sample
 * distributions (the layout of McBatchResult::sampleProbs).
 */
std::vector<float>
serialSampleProbs(const QuantizedProgram &program,
                  const AcceleratorConfig &config, const std::string &grng,
                  std::uint64_t seed, int rounds, const float *xs,
                  std::size_t count)
{
    const std::size_t dim = program.inputDim();
    const std::size_t out_dim = program.outputDim();
    const auto t = static_cast<std::size_t>(rounds);
    std::vector<float> probs(count * t * out_dim);
    std::vector<std::int64_t> raw(count * out_dim);
    std::vector<float> logits(out_dim);
    for (std::size_t r = 0; r < t; ++r) {
        auto gen = grng::makeGenerator(grng, McEngine::roundSeed(seed, r));
        BatchedRunner runner(program, config, gen.get());
        runner.runRoundBatch(xs, count, dim, raw.data());
        for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t c = 0; c < out_dim; ++c)
                logits[c] = static_cast<float>(
                    program.activationFormat.toReal(raw[i * out_dim + c]));
            nn::softmax(logits.data(), out_dim);
            std::copy(logits.begin(), logits.end(),
                      probs.begin() +
                          static_cast<std::ptrdiff_t>((i * t + r) * out_dim));
        }
    }
    return probs;
}

bool
sameBytes(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

serve::InferenceSession::Builder
sessionBuilder(QuantizedProgram program, const AcceleratorConfig &config,
               std::uint64_t seed)
{
    return std::move(serve::InferenceSession::Builder()
                         .program(std::move(program))
                         .accelerator(config)
                         .mode(serve::ExecMode::Throughput)
                         .grng("rlf")
                         .threads(1)
                         .seed(seed));
}

/** All probabilities of a session result, image-major. */
std::vector<float>
flatProbs(const serve::InferenceResult &result)
{
    std::vector<float> out;
    for (const auto &p : result.predictions)
        out.insert(out.end(), p.probs.begin(), p.probs.end());
    return out;
}

} // anonymous namespace

// ---------------------------------------------------- warm bit-exactness

class WarmEngine
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>>
{
};

TEST_P(WarmEngine, WholeBatchRoundsMatchSerialReproduction)
{
    const auto &[grng, threads] = GetParam();
    const auto config = smallConfig(6);
    const auto program = mlpProgram({24, 16, 4}, config, 3);
    const auto xs = randomBatch(5, program.inputDim(), 17);

    McEngine engine(program, config, engineConfig(grng, threads, 91));
    const auto cold = engine.classifyBatchDetailed(xs.data(), 5,
                                                   program.inputDim());
    const auto warm = engine.classifyBatchDetailed(xs.data(), 5,
                                                   program.inputDim());
    EXPECT_EQ(engine.stats().roundsRestored, 6u);

    const auto serial = serialSampleProbs(program, config, grng, 91, 6,
                                          xs.data(), 5);
    EXPECT_TRUE(sameBytes(cold.sampleProbs, serial));
    EXPECT_TRUE(sameBytes(warm.sampleProbs, serial));
    EXPECT_TRUE(sameBytes(warm.probs, cold.probs));
    EXPECT_EQ(warm.predicted, cold.predicted);
}

TEST_P(WarmEngine, GatherRoundsMatchSerialReproduction)
{
    // Adaptive passes run gather rounds over a shrinking active set;
    // each retained image's rounds must still be the serial draws.
    // One-round chunks run on a single replica, which hands the pool to
    // the runner (sharded philox draw, image-sharded rounds).
    const auto &[grng, threads] = GetParam();
    const auto config = smallConfig(12);
    const auto program = mlpProgram({24, 16, 4}, config, 5);
    const std::size_t count = 6;
    const auto xs = randomBatch(count, program.inputDim(), 23);

    McAdaptiveOptions opts;
    opts.chunk = 1;
    opts.test.confidence = 0.9;
    opts.test.minSamples = 2;

    McEngine engine(program, config, engineConfig(grng, threads, 37));
    const auto cold = engine.classifyBatchAdaptive(
        xs.data(), count, program.inputDim(), opts);
    const auto warm = engine.classifyBatchAdaptive(
        xs.data(), count, program.inputDim(), opts);
    EXPECT_GT(engine.stats().roundsRestored, 0u);
    EXPECT_TRUE(sameBytes(warm.probs, cold.probs));
    EXPECT_TRUE(sameBytes(warm.sampleProbs, cold.sampleProbs));
    EXPECT_EQ(warm.achieved, cold.achieved);

    const auto serial = serialSampleProbs(program, config, grng, 37, 12,
                                          xs.data(), count);
    const std::size_t out_dim = program.outputDim();
    for (std::size_t i = 0; i < count; ++i)
        for (int r = 0; r < warm.achieved[i]; ++r) {
            const std::size_t at = (i * 12 + r) * out_dim;
            EXPECT_EQ(std::memcmp(warm.sampleProbs.data() + at,
                                  serial.data() + at,
                                  out_dim * sizeof(float)),
                      0)
                << "image " << i << " round " << r;
        }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsAndThreads, WarmEngine,
    ::testing::Combine(::testing::Values(std::string("rlf"),
                                         std::string("philox")),
                       ::testing::Values(std::size_t{1}, std::size_t{3})),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
            std::to_string(std::get<1>(info.param)) + "threads";
    });

TEST(WeightCache, ShortTEngineReusesALongerEnginesRounds)
{
    const auto program = mlpProgram({24, 16, 4}, smallConfig(32), 7);
    const auto xs = randomBatch(3, program.inputDim(), 29);

    McEngine t32(program, smallConfig(32), engineConfig("rlf", 1, 55));
    t32.classifyBatchDetailed(xs.data(), 3, program.inputDim());
    McEngine t8(program, smallConfig(8), engineConfig("rlf", 1, 55));
    ASSERT_EQ(t8.weightCache(), t32.weightCache());

    const auto result =
        t8.classifyBatchDetailed(xs.data(), 3, program.inputDim());
    EXPECT_EQ(t8.stats().roundsRestored, 8u);
    EXPECT_EQ(t8.stats().roundsDrawn, 0u);
    EXPECT_EQ(t8.stats().grnSamples, 0u);
    EXPECT_TRUE(sameBytes(result.sampleProbs,
                          serialSampleProbs(program, smallConfig(8), "rlf",
                                            55, 8, xs.data(), 3)));
}

TEST(WeightCache, SecondIdenticalRequestRestoresEveryRound)
{
    const auto config = smallConfig(10);
    const auto program = mlpProgram({24, 16, 4}, config, 9);
    const auto xs = randomBatch(4, program.inputDim(), 31);

    McEngine engine(program, config, engineConfig("rlf", 2, 61));
    engine.classifyBatchDetailed(xs.data(), 4, program.inputDim());
    const CycleStats first = engine.stats();
    EXPECT_EQ(first.roundsDrawn, 10u);
    EXPECT_EQ(first.roundsRestored, 0u);

    engine.classifyBatchDetailed(xs.data(), 4, program.inputDim());
    const CycleStats second = engine.stats();
    EXPECT_EQ(second.roundsDrawn, 10u) << "a warm request drew rounds";
    EXPECT_EQ(second.roundsRestored, 10u);
    EXPECT_EQ(second.grnSamples, first.grnSamples)
        << "grnSamples must count only eps actually drawn";
    EXPECT_EQ(second.images, 2 * first.images);
}

TEST(WeightCache, RoundsPastTheBudgetDrawFreshAndStillMatch)
{
    // 784-784-784-4: 1.23M weights, so the budget holds 27 rounds and
    // a T=30 request runs three rounds past it on every call.
    const auto config = smallConfig(30);
    const auto program = mlpProgram({784, 784, 784, 4}, config, 11);
    const auto xs = randomBatch(2, program.inputDim(), 37);

    McEngine engine(program, config, engineConfig("rlf", 1, 71));
    const WeightCache *cache = engine.weightCache();
    ASSERT_NE(cache, nullptr);
    ASSERT_LT(cache->roundCapacity(), 30u);
    const std::uint64_t capacity = cache->roundCapacity();
    EXPECT_LE(capacity * cache->roundBytes(), WeightCache::kBudgetBytes);

    engine.classifyBatchDetailed(xs.data(), 2, program.inputDim());
    const auto warm =
        engine.classifyBatchDetailed(xs.data(), 2, program.inputDim());
    EXPECT_EQ(engine.stats().roundsRestored, capacity);
    EXPECT_EQ(engine.stats().roundsDrawn, 30u + (30u - capacity));
    EXPECT_EQ(cache->residentBytes(), capacity * cache->roundBytes());
    EXPECT_TRUE(sameBytes(warm.sampleProbs,
                          serialSampleProbs(program, config, "rlf", 71, 30,
                                            xs.data(), 2)));
}

// ------------------------------------------------------------- sharing

TEST(WeightCache, SessionsShareOneCachePerKey)
{
    const int t = 6;
    const auto config = smallConfig(t);
    const auto program = mlpProgram({24, 16, 4}, config, 13);
    const std::size_t dim = program.inputDim();
    const auto xs = randomBatch(3, dim, 41);
    const auto request = serve::InferenceRequest::borrow(xs.data(), 3, dim);
    const std::uint64_t base = WeightCache::totalResidentBytes();

    auto a = sessionBuilder(program, config, 5).build();
    const auto ra = a->run(request);
    auto b = sessionBuilder(program, config, 5).build();
    const auto rb = b->run(request);

    const auto shared = WeightCache::acquire(program, "rlf", 5);
    const std::uint64_t round_bytes = shared->roundBytes();
    EXPECT_EQ(round_bytes, 24u * 16u + 16u * 4u)
        << "8-bit grids store one byte per weight";
    EXPECT_EQ(shared->residentBytes(), t * round_bytes);
    EXPECT_EQ(WeightCache::totalResidentBytes() - base, t * round_bytes)
        << "a shared cache's bytes count once";
    EXPECT_EQ(b->stats().roundsRestored, static_cast<std::uint64_t>(t));
    EXPECT_EQ(b->stats().roundsDrawn, 0u);
    EXPECT_TRUE(sameBytes(flatProbs(ra), flatProbs(rb)));

    // A different seed is a different key.
    auto c = sessionBuilder(program, config, 6).build();
    c->run(request);
    EXPECT_EQ(c->stats().roundsDrawn, static_cast<std::uint64_t>(t));
    EXPECT_EQ(WeightCache::totalResidentBytes() - base, 2 * t * round_bytes);

    // So is one changed sigma value.
    auto changed = program;
    for (auto &op : changed.ops)
        if (op.isCompute()) {
            op.bank.sigmaWeight[0] += 1;
            break;
        }
    auto d = sessionBuilder(changed, config, 5).build();
    d->run(request);
    EXPECT_EQ(d->stats().roundsDrawn, static_cast<std::uint64_t>(t));
    EXPECT_EQ(d->stats().roundsRestored, 0u);
    EXPECT_NE(WeightCache::acquire(changed, "rlf", 5), shared);
    EXPECT_EQ(WeightCache::totalResidentBytes() - base, 3 * t * round_bytes);

    // Released with the last engine using it.
    c.reset();
    EXPECT_EQ(WeightCache::totalResidentBytes() - base, 2 * t * round_bytes);
}

TEST(WeightCache, ConcurrentSessionsFillTheSameRounds)
{
    // Two shards racing over the same empty rounds: each round is
    // stored once, by whichever fill wins its claim, and both shards
    // return the serial result. (Runs under TSan in CI.)
    const int t = 16;
    const auto config = smallConfig(t);
    const auto program = mlpProgram({24, 16, 4}, config, 17);
    const std::size_t dim = program.inputDim();
    const auto xs = randomBatch(4, dim, 43);
    const auto request = serve::InferenceRequest::borrow(xs.data(), 4, dim);

    std::vector<std::unique_ptr<serve::InferenceSession>> shards;
    for (int s = 0; s < 2; ++s)
        shards.push_back(sessionBuilder(program, config, 8)
                             .threads(2)
                             .build());
    std::vector<serve::InferenceResult> results(2);
    std::vector<std::thread> workers;
    for (int s = 0; s < 2; ++s)
        workers.emplace_back(
            [&, s] { results[s] = shards[s]->run(request); });
    for (auto &w : workers)
        w.join();

    EXPECT_TRUE(sameBytes(flatProbs(results[0]), flatProbs(results[1])));
    std::uint64_t rounds = 0;
    for (const auto &shard : shards)
        rounds += shard->stats().roundsRestored +
            shard->stats().roundsDrawn;
    EXPECT_EQ(rounds, 2u * t);
    const auto cache = WeightCache::acquire(program, "rlf", 8);
    EXPECT_EQ(cache->residentBytes(), t * cache->roundBytes());

    auto fresh = sessionBuilder(program, config, 8).build();
    fresh->run(request);
    EXPECT_EQ(fresh->stats().roundsRestored,
              static_cast<std::uint64_t>(t));
    const auto again = shards[0]->run(request);
    EXPECT_TRUE(sameBytes(flatProbs(again), flatProbs(results[0])));
}

// -------------------------------------------------------------- faults

class WeightCacheFaults : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarm(); }
    void TearDown() override { fault::disarm(); }
};

TEST_F(WeightCacheFaults, BitFlipsLandOnTheCopyNotTheCache)
{
    const auto config = smallConfig(8);
    const auto program = mlpProgram({24, 16, 4}, config, 19);
    const std::size_t dim = program.inputDim();
    const auto xs = randomBatch(4, dim, 47);

    std::vector<float> clean;
    {
        McEngine engine(program, config, engineConfig("rlf", 1, 83));
        clean = engine.classifyBatchDetailed(xs.data(), 4, dim).sampleProbs;
    }

    std::string error;
    ASSERT_TRUE(fault::armSpec("accel.weights.bitflip:p=0.02", error))
        << error;
    McEngine engine(program, config, engineConfig("rlf", 2, 83));
    const auto cold = engine.classifyBatchDetailed(xs.data(), 4, dim);
    const auto warm1 = engine.classifyBatchDetailed(xs.data(), 4, dim);
    const auto warm2 = engine.classifyBatchDetailed(xs.data(), 4, dim);
    EXPECT_GT(fault::fires("accel.weights.bitflip"), 0u);
    EXPECT_EQ(engine.stats().roundsRestored, 16u);
    EXPECT_FALSE(sameBytes(cold.sampleProbs, clean))
        << "bit flips at p=0.02 left every output untouched";
    EXPECT_TRUE(sameBytes(warm1.sampleProbs, cold.sampleProbs));
    EXPECT_TRUE(sameBytes(warm2.sampleProbs, cold.sampleProbs));

    // The cache holds the clean draws: disarmed, restored rounds give
    // the unfaulted result.
    fault::disarm();
    EXPECT_TRUE(sameBytes(
        engine.classifyBatchDetailed(xs.data(), 4, dim).sampleProbs,
        clean));
}
