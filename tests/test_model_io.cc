/**
 * @file
 * Tests for model serialization: bit-exact round trips for all four
 * file kinds (MLP, ConvNet, quantized network, compiled program),
 * prediction equivalence after reload, and failure injection —
 * truncation, bit corruption, wrong magic, and cross-kind loads must
 * all be rejected (never reach the accelerator).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "accel/config.hh"
#include "accel/functional.hh"
#include "accel/program.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "core/model_io.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::core;

namespace
{

/** Temp path helper; files are removed by each test. */
std::string
tempPath(const char *name)
{
    return std::string("/tmp/vibnn_model_io_") + name + ".bin";
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bnn::BayesianMlp
makeMlp()
{
    Rng rng(5);
    return bnn::BayesianMlp({12, 8, 4}, rng);
}

} // namespace

TEST(ModelIo, MlpRoundTripIsBitExact)
{
    const auto path = tempPath("mlp_rt");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));

    auto loaded = loadBayesianMlp(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->layerSizes(), net.layerSizes());

    std::vector<float> a, b;
    net.gatherParams(a);
    loaded->gatherParams(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "param " << i; // bit-exact
    std::remove(path.c_str());
}

TEST(ModelIo, MlpPredictionsSurviveReload)
{
    const auto path = tempPath("mlp_pred");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto loaded = loadBayesianMlp(path);
    ASSERT_NE(loaded, nullptr);

    Rng data(7);
    std::vector<float> x(net.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(-1, 1));
    std::vector<float> la(net.outputDim()), lb(net.outputDim());
    net.meanForward(x.data(), la.data());
    loaded->meanForward(x.data(), lb.data());
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i], lb[i]);
    std::remove(path.c_str());
}

TEST(ModelIo, ConvNetRoundTripIsBitExact)
{
    const auto path = tempPath("bcnn_rt");
    nn::ConvNetConfig cfg;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{4, 3, 1, 1, true, 2}, {6, 3, 1, 1, false, 2}};
    cfg.denseHidden = {16, 8};
    cfg.numClasses = 3;
    Rng rng(9);
    bnn::BayesianConvNet net(cfg, rng);
    ASSERT_TRUE(saveBayesianConvNet(net, path));

    auto loaded = loadBayesianConvNet(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->config().blocks.size(), cfg.blocks.size());
    EXPECT_EQ(loaded->config().denseHidden, cfg.denseHidden);
    EXPECT_EQ(loaded->paramCount(), net.paramCount());

    std::vector<float> a, b;
    net.gatherParams(a);
    loaded->gatherParams(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);

    // Mean predictions identical.
    Rng data(11);
    std::vector<float> x(net.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    auto wa = net.makeWorkspace();
    auto wb = loaded->makeWorkspace();
    std::vector<float> la(net.outputDim()), lb(net.outputDim());
    net.meanForward(x.data(), la.data(), wa);
    loaded->meanForward(x.data(), lb.data(), wb);
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i], lb[i]);
    std::remove(path.c_str());
}

TEST(ModelIo, MlpProgramRoundTrip)
{
    const auto path = tempPath("quant_rt");
    auto net = makeMlp();
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    ASSERT_TRUE(saveQuantizedProgram(program, path));

    auto loaded = loadQuantizedProgram(path);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &a = program.ops[i].bank;
        const auto &b = loaded->ops[i].bank;
        EXPECT_EQ(b.inDim, a.inDim);
        EXPECT_EQ(b.muWeight, a.muWeight);
        EXPECT_EQ(b.sigmaWeight, a.sigmaWeight);
        EXPECT_EQ(b.muBias, a.muBias);
        EXPECT_EQ(b.sigmaBias, a.sigmaBias);
    }
    EXPECT_EQ(loaded->activationFormat.totalBits(),
              program.activationFormat.totalBits());
    EXPECT_EQ(loaded->weightFormat.fracBits(),
              program.weightFormat.fracBits());
    EXPECT_EQ(accel::validateProgram(*loaded, config), "");
    std::remove(path.c_str());
}

TEST(ModelIo, QuantizedProgramRoundTripIsBitExact)
{
    // A compiled CNN program — the richest op mix (ConvLowered, Pool,
    // Flatten, Dense, Output) — must survive the cache file bit-exactly
    // so cached programs replace recompilation.
    const auto path = tempPath("prog_rt");
    nn::ConvNetConfig cfg;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{4, 3, 1, 1, true, 2}};
    cfg.denseHidden = {16};
    cfg.numClasses = 3;
    Rng rng(13);
    bnn::BayesianConvNet net(cfg, rng);
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    ASSERT_TRUE(saveQuantizedProgram(program, path));

    auto loaded = loadQuantizedProgram(path);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &a = program.ops[i];
        const auto &b = loaded->ops[i];
        EXPECT_EQ(a.kind, b.kind) << "op " << i;
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.inSize, b.inSize);
        EXPECT_EQ(a.outSize, b.outSize);
        EXPECT_EQ(a.relu, b.relu);
        EXPECT_EQ(a.bank.inDim, b.bank.inDim);
        EXPECT_EQ(a.bank.outDim, b.bank.outDim);
        EXPECT_EQ(a.bank.muWeight, b.bank.muWeight);
        EXPECT_EQ(a.bank.sigmaWeight, b.bank.sigmaWeight);
        EXPECT_EQ(a.bank.muBias, b.bank.muBias);
        EXPECT_EQ(a.bank.sigmaBias, b.bank.sigmaBias);
        EXPECT_EQ(a.conv.outChannels, b.conv.outChannels);
        EXPECT_EQ(a.conv.kernel, b.conv.kernel);
        EXPECT_EQ(a.pool.window, b.pool.window);
    }
    EXPECT_EQ(loaded->activationFormat, program.activationFormat);
    EXPECT_EQ(loaded->weightFormat, program.weightFormat);
    EXPECT_EQ(loaded->epsFormat, program.epsFormat);

    // Executing the reloaded program with the same eps stream must be
    // bit-identical to the original — the cache is a real substitute.
    auto gen_a = grng::makeGenerator("rlf", 17);
    auto gen_b = grng::makeGenerator("rlf", 17);
    accel::FunctionalRunner run_a(program, config, gen_a.get());
    accel::FunctionalRunner run_b(*loaded, config, gen_b.get());
    Rng data(19);
    std::vector<float> x(program.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    EXPECT_EQ(run_a.runPass(x.data()), run_b.runPass(x.data()));
    std::remove(path.c_str());
}

TEST(ModelIo, QuantizedProgramCorruptionAndCrossKindRejected)
{
    const auto path = tempPath("prog_bad");
    auto net = makeMlp();
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    ASSERT_TRUE(saveQuantizedProgram(program, path));

    // A program image is not a model image and vice versa.
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    auto bytes = slurp(path);
    ASSERT_TRUE(saveBayesianMlp(net, path));
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);

    // Checksum still guards the payload.
    bytes[bytes.size() / 2] ^= 0x40;
    spit(path, bytes);
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, CraftedProgramFileIsRejectedWithReason)
{
    // A file with a valid checksum can still hold an unusable program.
    // The loader parses the container; validateProgram says what is
    // wrong — a reason to report, not a dead process.
    auto net = makeMlp();
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);

    const auto reload = [&](const accel::QuantizedProgram &crafted) {
        const auto path = tempPath("prog_crafted");
        EXPECT_TRUE(saveQuantizedProgram(crafted, path));
        auto loaded = loadQuantizedProgram(path);
        std::remove(path.c_str());
        EXPECT_NE(loaded, nullptr) << "the container itself is sound";
        return loaded ? accel::validateProgram(*loaded, config)
                      : std::string("not loaded");
    };

    auto unchained = program;
    unchained.ops[1].inSize += 1;
    const std::string chain_reason = reload(unchained);
    EXPECT_NE(chain_reason.find("does not chain"), std::string::npos)
        << chain_reason;

    auto short_plane = program;
    short_plane.ops[0].bank.sigmaWeight.pop_back();
    const std::string plane_reason = reload(short_plane);
    EXPECT_NE(plane_reason.find("parameter planes do not match"),
              std::string::npos)
        << plane_reason;

    auto smuggled = program;
    smuggled.ops.back().bank.muWeight = {1, 2, 3};
    const std::string staging_reason = reload(smuggled);
    EXPECT_NE(staging_reason.find("parameter planes do not match"),
              std::string::npos)
        << staging_reason;

    EXPECT_EQ(reload(program), "");
}

TEST(ModelIo, MissingFileReturnsNull)
{
    EXPECT_EQ(loadBayesianMlp("/tmp/vibnn_does_not_exist.bin"), nullptr);
}

TEST(ModelIo, TruncatedFileRejected)
{
    const auto path = tempPath("trunc");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    // Chop the file at several points; every prefix must be rejected.
    for (std::size_t keep :
         {std::size_t(4), std::size_t(12), bytes.size() / 2,
          bytes.size() - 1}) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        spit(path, cut);
        EXPECT_EQ(loadBayesianMlp(path), nullptr) << "kept " << keep;
    }
    std::remove(path.c_str());
}

TEST(ModelIo, BitCorruptionRejectedByChecksum)
{
    const auto path = tempPath("corrupt");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    // Flip one bit in the middle of the parameter payload.
    bytes[bytes.size() / 2] ^= 0x10;
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, WrongMagicRejected)
{
    const auto path = tempPath("magic");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, CrossKindLoadRejected)
{
    const auto path = tempPath("kind");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    // An MLP image is not a ConvNet image nor a program image.
    EXPECT_EQ(loadBayesianConvNet(path), nullptr);
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, TrailerCorruptionRejected)
{
    const auto path = tempPath("trailer");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    bytes.back() ^= 0x01; // flip a checksum bit
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}
