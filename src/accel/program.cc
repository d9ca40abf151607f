/**
 * @file
 * Quantized program IR: compiler front-ends and validation (see
 * program.hh).
 */

#include "accel/program.hh"

#include <algorithm>
#include <limits>

#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace vibnn::accel
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Dense:
        return "dense";
      case OpKind::ConvLowered:
        return "conv";
      case OpKind::Pool:
        return "pool";
      case OpKind::Flatten:
        return "flatten";
      case OpKind::Output:
        return "output";
    }
    return "?";
}

std::size_t
QuantizedProgram::inputDim() const
{
    if (ops.empty())
        fatal("QuantizedProgram::inputDim(): program has no ops "
              "(compile a network first)");
    return ops.front().inSize;
}

std::size_t
QuantizedProgram::outputDim() const
{
    if (ops.empty())
        fatal("QuantizedProgram::outputDim(): program has no ops "
              "(compile a network first)");
    return ops.back().outSize;
}

std::vector<std::size_t>
QuantizedProgram::bankInputSizes() const
{
    std::vector<std::size_t> sizes;
    for (const auto &op : ops) {
        if (op.isCompute())
            sizes.push_back(op.bank.inDim);
    }
    return sizes;
}

std::string
validateProgram(const QuantizedProgram &program,
                const AcceleratorConfig &config)
{
    if (program.ops.empty())
        return "validateProgram: program has no ops";

    std::size_t flowing = program.ops.front().inSize;
    bool seen_compute = false;
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &op = program.ops[i];
        const auto &bank = op.bank;
        if (op.inSize != flowing) {
            return strfmt("program op %zu (%s): inSize %zu does not "
                          "chain with previous outSize %zu",
                          i, opKindName(op.kind), op.inSize, flowing);
        }
        switch (op.kind) {
          case OpKind::Dense:
            if (bank.inDim != op.inSize || bank.outDim != op.outSize) {
                return strfmt("program op %zu (dense): bank %zux%zu "
                              "does not match op sizes %zu->%zu",
                              i, bank.outDim, bank.inDim, op.inSize,
                              op.outSize);
            }
            break;
          case OpKind::ConvLowered:
            if (!op.conv.valid())
                return strfmt("program op %zu (conv): invalid geometry",
                              i);
            if (op.inSize != op.conv.inputSize() ||
                op.outSize != op.conv.outputSize() ||
                bank.inDim != op.conv.patchSize() ||
                bank.outDim != op.conv.outChannels) {
                return strfmt("program op %zu (conv): bank/geometry "
                              "mismatch",
                              i);
            }
            break;
          case OpKind::Pool:
            if (!op.pool.valid())
                return strfmt("program op %zu (pool): invalid geometry",
                              i);
            if (op.inSize != op.pool.inputSize() ||
                op.outSize != op.pool.outputSize()) {
                return strfmt("program op %zu (pool): geometry does not "
                              "match op sizes",
                              i);
            }
            break;
          case OpKind::Flatten:
          case OpKind::Output:
            if (op.outSize != op.inSize)
                return strfmt("program op %zu (%s): must be identity-"
                              "sized",
                              i, opKindName(op.kind));
            break;
        }
        // The executors index the planes by the bank shape, so a short
        // plane would be read out of bounds; staging ops carry none.
        if (bank.inDim != 0 &&
            bank.outDim > std::numeric_limits<std::size_t>::max() /
                              bank.inDim)
            return strfmt("program op %zu (%s): bank shape overflows",
                          i, opKindName(op.kind));
        const std::size_t weights =
            op.isCompute() ? bank.inDim * bank.outDim : 0;
        const std::size_t biases = op.isCompute() ? bank.outDim : 0;
        if (bank.muWeight.size() != weights ||
            bank.sigmaWeight.size() != weights ||
            bank.muBias.size() != biases ||
            bank.sigmaBias.size() != biases) {
            return strfmt("program op %zu (%s): parameter planes do not "
                          "match the bank shape (%zu weights, %zu "
                          "biases expected)",
                          i, opKindName(op.kind), weights, biases);
        }
        seen_compute = seen_compute || op.isCompute();
        flowing = op.outSize;
    }
    if (!seen_compute)
        return "validateProgram: program has no compute ops";
    if (program.ops.back().kind != OpKind::Output)
        return "validateProgram: program must end in an Output staging "
               "op";

    // Equation-(15) constraint system, applied once over the whole
    // program: the write-drain condition ranges over every compute
    // op's bank input (AcceleratorConfig::validate takes the min over
    // all entries but the last, so append the output width).
    std::vector<std::size_t> sizes = program.bankInputSizes();
    sizes.push_back(program.outputDim());
    return config.validate(sizes);
}

void
requireValidProgram(const QuantizedProgram &program,
                    const AcceleratorConfig &config)
{
    const std::string reason = validateProgram(program, config);
    if (!reason.empty())
        fatal(reason);
}

QuantizedLayer
quantizeBank(const float *mu_weight, const float *rho_weight,
             const float *mu_bias, const float *rho_bias,
             std::size_t in_dim, std::size_t out_dim,
             const fixed::FixedPointFormat &weight_format)
{
    QuantizedLayer bank;
    bank.inDim = in_dim;
    bank.outDim = out_dim;

    const std::size_t weights = in_dim * out_dim;
    bank.muWeight.resize(weights);
    bank.sigmaWeight.resize(weights);
    for (std::size_t i = 0; i < weights; ++i) {
        bank.muWeight[i] = static_cast<std::int32_t>(
            weight_format.fromReal(mu_weight[i]));
        bank.sigmaWeight[i] = static_cast<std::int32_t>(
            weight_format.fromReal(
                bnn::VariationalDense::sigmaOf(rho_weight[i])));
    }

    bank.muBias.resize(out_dim);
    bank.sigmaBias.resize(out_dim);
    for (std::size_t i = 0; i < out_dim; ++i) {
        bank.muBias[i] = static_cast<std::int32_t>(
            weight_format.fromReal(mu_bias[i]));
        bank.sigmaBias[i] = static_cast<std::int32_t>(
            weight_format.fromReal(
                bnn::VariationalDense::sigmaOf(rho_bias[i])));
    }
    return bank;
}

namespace
{

void
applyFormats(QuantizedProgram &program, const AcceleratorConfig &config)
{
    program.activationFormat = config.activationFormat();
    program.weightFormat = config.weightFormat();
    program.epsFormat = config.epsFormat();
}

ProgramOp
makeDenseOp(const bnn::VariationalDense &layer, bool relu,
            const fixed::FixedPointFormat &weight_format,
            std::size_t index)
{
    ProgramOp op;
    op.kind = OpKind::Dense;
    op.inSize = layer.inDim();
    op.outSize = layer.outDim();
    op.relu = relu;
    op.bank = quantizeBank(
        layer.muWeight().data().data(), layer.rhoWeight().data().data(),
        layer.muBias().data(), layer.rhoBias().data(), layer.inDim(),
        layer.outDim(), weight_format);
    op.label = strfmt("dense%zu %zu->%zu", index, op.inSize, op.outSize);
    return op;
}

ProgramOp
makeOutputOp(std::size_t dim)
{
    ProgramOp op;
    op.kind = OpKind::Output;
    op.inSize = dim;
    op.outSize = dim;
    op.relu = false;
    op.label = strfmt("output %zu", dim);
    return op;
}

} // namespace

QuantizedProgram
compile(const bnn::BayesianMlp &net, const AcceleratorConfig &config)
{
    QuantizedProgram program;
    applyFormats(program, config);

    const auto &layers = net.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        program.ops.push_back(makeDenseOp(
            layers[i], /*relu=*/i + 1 < layers.size(),
            program.weightFormat, i));
    }
    if (!program.ops.empty())
        program.ops.push_back(makeOutputOp(program.ops.back().outSize));

    requireValidProgram(program, config);
    return program;
}

QuantizedProgram
compile(const bnn::BayesianConvNet &net, const AcceleratorConfig &config)
{
    QuantizedProgram program;
    applyFormats(program, config);

    // Conv(+pool) stages: the block list is the authoritative stage
    // order; each conv layer carries its own geometry.
    const auto &blocks = net.config().blocks;
    const auto &convs = net.convLayers();
    VIBNN_ASSERT(blocks.size() == convs.size(),
                 "conv block/layer count mismatch");
    for (std::size_t i = 0; i < convs.size(); ++i) {
        const auto &spec = convs[i].spec();
        ProgramOp op;
        op.kind = OpKind::ConvLowered;
        op.conv = spec;
        op.inSize = spec.inputSize();
        op.outSize = spec.outputSize();
        op.relu = true;
        op.bank = quantizeBank(convs[i].muWeight().data().data(),
                               convs[i].rhoWeight().data().data(),
                               convs[i].muBias().data(),
                               convs[i].rhoBias().data(),
                               spec.patchSize(), spec.outChannels,
                               program.weightFormat);
        op.label = strfmt("conv%zu %zu->%zu %zux%zu @%zux%zu", i,
                          spec.inChannels, spec.outChannels, spec.kernel,
                          spec.kernel, spec.inHeight, spec.inWidth);
        program.ops.push_back(std::move(op));

        if (blocks[i].pool) {
            nn::PoolSpec pool;
            pool.channels = spec.outChannels;
            pool.inHeight = spec.outHeight();
            pool.inWidth = spec.outWidth();
            pool.window = blocks[i].poolWindow;
            pool.stride = blocks[i].poolWindow;
            ProgramOp pop;
            pop.kind = OpKind::Pool;
            pop.pool = pool;
            pop.inSize = pool.inputSize();
            pop.outSize = pool.outputSize();
            pop.relu = false;
            pop.label = strfmt("pool%zu %zux%zu", i, pool.window,
                               pool.window);
            program.ops.push_back(std::move(pop));
        }
    }

    // CHW -> flat boundary before the dense head.
    {
        ProgramOp op;
        op.kind = OpKind::Flatten;
        op.inSize = program.ops.back().outSize;
        op.outSize = op.inSize;
        op.relu = false;
        op.label = strfmt("flatten %zu", op.inSize);
        program.ops.push_back(std::move(op));
    }

    const auto &dense = net.denseLayers();
    for (std::size_t i = 0; i < dense.size(); ++i) {
        program.ops.push_back(makeDenseOp(
            dense[i], /*relu=*/i + 1 < dense.size(),
            program.weightFormat, i));
    }
    program.ops.push_back(makeOutputOp(net.outputDim()));

    requireValidProgram(program, config);
    return program;
}

} // namespace vibnn::accel
