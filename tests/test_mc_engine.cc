/**
 * @file
 * Tests for the parallel Monte-Carlo inference engine: bit-exact
 * reproduction of its seed schedule on a serial simulator, bit-identical
 * results across thread counts, aggregate counter identities against
 * serial Simulator::classify, and exact agreement with the serial path
 * when sigma = 0 (where MC sampling is a no-op).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/mc_engine.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_mlp.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

bnn::BayesianMlp
makeNet(const std::vector<std::size_t> &sizes, std::uint64_t seed)
{
    Rng rng(seed);
    return bnn::BayesianMlp(sizes, rng);
}

AcceleratorConfig
smallConfig(int mc_samples)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

std::vector<float>
makeInput(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(dim);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform());
    return x;
}

} // anonymous namespace

TEST(McEngine, MatchesSerialSeedScheduleEmulation)
{
    // Every (image, sample) unit runs with the stream seeded by
    // streamSeed(); replaying that schedule on one serial Simulator
    // must reproduce the engine's per-sample raw outputs bit for bit —
    // the "parallel classify matches serial classify" contract.
    auto net = makeNet({32, 16, 4}, 3);
    const auto config = smallConfig(6);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 11);

    McEngineConfig mc;
    mc.threads = 3;
    mc.generatorId = "rlf";
    mc.seedBase = 77;
    McEngine engine(q, config, mc);
    const McResult parallel = engine.classifyDetailed(x.data());
    ASSERT_EQ(parallel.rawSamples.size(), 6u);

    auto placeholder = grng::makeGenerator("rlf", 1);
    Simulator sim(q, config, placeholder.get());
    for (int s = 0; s < config.mcSamples; ++s) {
        auto gen = grng::makeGenerator(
            "rlf", McEngine::streamSeed(77, 0,
                                        static_cast<std::uint64_t>(s)));
        sim.setGenerator(gen.get());
        const auto raw = sim.runPass(x.data());
        EXPECT_EQ(raw, parallel.rawSamples[s]) << "sample " << s;
        sim.setGenerator(placeholder.get());
    }
}

TEST(McEngine, BitIdenticalAcrossThreadCounts)
{
    auto net = makeNet({32, 16, 4}, 5);
    const auto config = smallConfig(8);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 13);

    McEngineConfig mc;
    mc.generatorId = "bnnwallace";
    mc.seedBase = 123;

    McResult results[3];
    const std::size_t thread_counts[3] = {1, 2, 5};
    for (int i = 0; i < 3; ++i) {
        auto cfg = mc;
        cfg.threads = thread_counts[i];
        McEngine engine(q, config, cfg);
        results[i] = engine.classifyDetailed(x.data());
    }

    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].predicted, results[0].predicted);
        ASSERT_EQ(results[i].rawSamples.size(),
                  results[0].rawSamples.size());
        for (std::size_t s = 0; s < results[0].rawSamples.size(); ++s)
            EXPECT_EQ(results[i].rawSamples[s],
                      results[0].rawSamples[s])
                << "threads=" << thread_counts[i] << " sample " << s;
        ASSERT_EQ(results[i].probs.size(), results[0].probs.size());
        for (std::size_t c = 0; c < results[0].probs.size(); ++c)
            EXPECT_EQ(results[i].probs[c], results[0].probs[c])
                << "threads=" << thread_counts[i] << " class " << c;
    }
}

TEST(McEngine, BatchBitIdenticalAcrossThreadCounts)
{
    auto net = makeNet({32, 16, 4}, 7);
    const auto config = smallConfig(4);
    const auto q = compile(net, config);

    const std::size_t count = 5, dim = 32;
    std::vector<float> xs(count * dim);
    Rng rng(17);
    for (auto &v : xs)
        v = static_cast<float>(rng.uniform());

    std::vector<std::size_t> preds[2];
    std::vector<float> probs[2];
    const std::size_t thread_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        McEngineConfig mc;
        mc.threads = thread_counts[i];
        mc.seedBase = 9;
        McEngine engine(q, config, mc);
        probs[i].resize(count * q.outputDim());
        preds[i] = engine.classifyBatch(xs.data(), count, dim,
                                        probs[i].data());
    }
    EXPECT_EQ(preds[0], preds[1]);
    for (std::size_t i = 0; i < probs[0].size(); ++i)
        EXPECT_EQ(probs[0][i], probs[1][i]) << "prob " << i;
}

TEST(McEngine, BatchImageZeroMatchesSingleClassify)
{
    // Image index 0 of a batch uses the same stream seeds as a
    // single-image classify, so the two must agree exactly.
    auto net = makeNet({32, 16, 4}, 19);
    const auto config = smallConfig(4);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 23);

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 31;
    McEngine engine(q, config, mc);

    std::vector<float> single_probs(q.outputDim());
    const std::size_t single = engine.classify(x.data(),
                                               single_probs.data());

    McEngine batch_engine(q, config, mc);
    std::vector<float> batch_probs(q.outputDim());
    const auto preds = batch_engine.classifyBatch(x.data(), 1, 32,
                                                  batch_probs.data());
    EXPECT_EQ(preds.front(), single);
    for (std::size_t i = 0; i < single_probs.size(); ++i)
        EXPECT_EQ(batch_probs[i], single_probs[i]);
}

TEST(McEngine, AggregateCountersMatchSerialClassify)
{
    // grnSamples (eps consumed) and macs are functions of the network
    // geometry and pass count only, so the parallel engine must report
    // exactly what a serial Simulator::classify reports.
    auto net = makeNet({32, 16, 4}, 29);
    const auto config = smallConfig(5);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 37);

    auto gen = grng::makeGenerator("rlf", 41);
    Simulator serial(q, config, gen.get());
    serial.classify(x.data());

    McEngineConfig mc;
    mc.threads = 3;
    mc.seedBase = 43;
    McEngine engine(q, config, mc);
    engine.classify(x.data());
    const CycleStats merged = engine.stats();

    EXPECT_EQ(merged.grnSamples, serial.stats().grnSamples);
    EXPECT_EQ(merged.macs, serial.stats().macs);
    EXPECT_EQ(merged.images, serial.stats().images);
    EXPECT_EQ(merged.totalCycles, serial.stats().totalCycles);
    EXPECT_EQ(merged.ifmemReads, serial.stats().ifmemReads);
    EXPECT_EQ(merged.wpmemReads, serial.stats().wpmemReads);
}

TEST(McEngine, SigmaZeroMatchesSerialClassifyExactly)
{
    // With sigma = 0 the eps stream is irrelevant, so the parallel
    // engine and the serial simulator must produce identical
    // probabilities — seed schedules and all.
    auto net = makeNet({16, 8, 3}, 47);
    for (auto &layer : net.layers()) {
        for (auto &rho : layer.rhoWeight().data())
            rho = -40.0f;
        for (auto &rho : layer.rhoBias())
            rho = -40.0f;
    }
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    config.mcSamples = 3;
    const auto q = compile(net, config);
    const auto x = makeInput(16, 53);

    auto gen = grng::makeGenerator("rlf", 59);
    Simulator serial(q, config, gen.get());
    std::vector<float> serial_probs(3);
    const std::size_t serial_pred =
        serial.classify(x.data(), serial_probs.data());

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 61;
    McEngine engine(q, config, mc);
    std::vector<float> engine_probs(3);
    const std::size_t engine_pred =
        engine.classify(x.data(), engine_probs.data());

    EXPECT_EQ(engine_pred, serial_pred);
    for (int i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(engine_probs[i], serial_probs[i]);
}

TEST(McEngine, ProbabilitiesNearSerialClassify)
{
    // Different eps streams, same distribution: with enough MC samples
    // the averaged probabilities of the parallel engine and the serial
    // simulator converge. Loose bound — this guards against gross
    // stream-handling bugs (reused or skipped samples), not MC noise.
    auto net = makeNet({32, 16, 4}, 67);
    const auto config = smallConfig(32);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 71);

    auto gen = grng::makeGenerator("rlf", 73);
    Simulator serial(q, config, gen.get());
    std::vector<float> serial_probs(4);
    serial.classify(x.data(), serial_probs.data());

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 79;
    McEngine engine(q, config, mc);
    std::vector<float> engine_probs(4);
    engine.classify(x.data(), engine_probs.data());

    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(engine_probs[i], serial_probs[i], 0.2f) << "class "
                                                            << i;
}

TEST(McEngine, RepeatedRunsAreDeterministic)
{
    auto net = makeNet({32, 16, 4}, 83);
    const auto config = smallConfig(4);
    const auto q = compile(net, config);
    const auto x = makeInput(32, 89);

    McEngineConfig mc;
    mc.threads = 0; // size from the global pool
    mc.seedBase = 97;
    McEngine engine(q, config, mc);
    const McResult a = engine.classifyDetailed(x.data());
    const McResult b = engine.classifyDetailed(x.data());
    EXPECT_EQ(a.predicted, b.predicted);
    for (std::size_t s = 0; s < a.rawSamples.size(); ++s)
        EXPECT_EQ(a.rawSamples[s], b.rawSamples[s]);
    for (std::size_t i = 0; i < a.probs.size(); ++i)
        EXPECT_EQ(a.probs[i], b.probs[i]);
}

TEST(McEngine, StreamSeedsAreDistinct)
{
    // Unit coordinates must map to distinct stream seeds (collisions
    // would correlate MC samples).
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t image = 0; image < 64; ++image)
        for (std::uint64_t sample = 0; sample < 64; ++sample)
            seeds.push_back(McEngine::streamSeed(5, image, sample));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}
