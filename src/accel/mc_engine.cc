#include "accel/mc_engine.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "grng/registry.hh"
#include "nn/activations.hh"
#include "nn/tensor.hh"

namespace vibnn::accel
{

McEngine::McEngine(const QuantizedProgram &program,
                   const AcceleratorConfig &config,
                   const McEngineConfig &mc)
    : config_(config), mc_(mc)
{
    requireValidProgram(program, config_);
    VIBNN_ASSERT(config_.mcSamples >= 1, "need at least one MC sample");

    if (mc_.threads == 0) {
        executors_ = ThreadPool::global().workerCount() + 1;
    } else {
        executors_ = mc_.threads;
        if (mc_.threads > 1)
            ownPool_ = std::make_unique<ThreadPool>(mc_.threads - 1);
    }
    if (mc_.schedule == McSchedule::PerRound &&
        executorCaps(mc_.backendId).batchedRounds)
        weightCache_ = WeightCache::acquire(program, mc_.generatorId,
                                            mc_.seedBase);
    // The first replica's copy is the engine's program: later replicas
    // copy it, so the engine holds no copy of its own. The executor is
    // heap-allocated, so the address survives replicas_ growing.
    addReplica(program);
    program_ = &replicas_.front().executor->program();
}

McEngine::~McEngine() = default;

std::uint64_t
McEngine::streamSeed(std::uint64_t seed_base, std::uint64_t image,
                     std::uint64_t sample)
{
    // splitmix64 over a linear combination of the unit coordinates:
    // distinct (image, sample) pairs land on decorrelated streams, and
    // the mapping is schedule-free — it depends only on the unit.
    std::uint64_t state = seed_base +
        0x9E3779B97F4A7C15ULL * (image + 1) +
        0xBF58476D1CE4E5B9ULL * (sample + 1);
    return splitmix64Next(state);
}

std::uint64_t
McEngine::roundSeed(std::uint64_t seed_base, std::uint64_t round)
{
    // Its own multiplier keeps round streams off the per-unit seed
    // lattice; like streamSeed the mapping depends only on the unit
    // (the round), never on the schedule.
    std::uint64_t state = seed_base +
        0x94D049BB133111EBULL * (round + 1) + 0xD6E8FEB86659FD93ULL;
    return splitmix64Next(state);
}

void
McEngine::addReplica(const QuantizedProgram &program)
{
    Replica replica;
    // Placeholder stream; every unit swaps in its own before use.
    replica.idleGenerator =
        grng::makeGenerator(mc_.generatorId, mc_.seedBase);
    replica.executor = makeExecutor(mc_.backendId, program, config_,
                                    replica.idleGenerator.get());
    replicas_.push_back(std::move(replica));
}

void
McEngine::ensureReplicas(std::size_t n)
{
    while (replicas_.size() < n)
        addReplica(program());
}

template <typename Body>
void
McEngine::withStream(Replica &replica, std::uint64_t seed, Body &&body)
{
    // Counter-based generators rekey in place (two register writes):
    // the stream switch then skips the heap construction. The
    // setGenerator call still runs to reset the executor's eps ring.
    if (replica.idleGenerator->reseed(seed)) {
        replica.executor->setGenerator(replica.idleGenerator.get());
        body();
        return;
    }
    auto generator = grng::makeGenerator(mc_.generatorId, seed);
    replica.executor->setGenerator(generator.get());
    body();
    // Leave the replica pointing at its own long-lived stream before
    // the unit's generator goes out of scope.
    replica.executor->setGenerator(replica.idleGenerator.get());
}

void
McEngine::runUnits(const float *xs, std::size_t count, std::size_t stride,
                   std::size_t samples, std::vector<std::int64_t> &raw)
{
    const std::size_t out_dim = program().outputDim();
    const std::size_t units = count * samples;
    raw.resize(units * out_dim);
    if (units == 0)
        return;

    const std::size_t replica_count =
        std::max<std::size_t>(1, std::min(executors_, units));
    ensureReplicas(replica_count);
    // Unit-level scheduling owns the pool here; revoke any intra-pass
    // grant so a backend cannot fan out underneath it.
    for (auto &replica : replicas_)
        replica.executor->setWorkPool(nullptr);

    // Static unit assignment: replica r owns units r, r+R, r+2R, ...
    // Outputs depend only on the unit (seeded stream + pure pass), so
    // the partition is a performance choice, not a semantic one.
    auto run_replica = [&](std::size_t r) {
        Replica &replica = replicas_[r];
        for (std::size_t u = r; u < units; u += replica_count) {
            const std::size_t image = u / samples;
            const std::size_t sample = u % samples;
            withStream(replica, streamSeed(mc_.seedBase, image, sample),
                       [&] {
                           const auto pass = replica.executor->runPass(
                               xs + image * stride);
                           std::copy(pass.begin(), pass.end(),
                                     raw.data() + u * out_dim);
                       });
        }
    };

    ThreadPool *pool =
        mc_.threads == 0 ? &ThreadPool::global() : ownPool_.get();
    if (pool && replica_count > 1)
        pool->parallelFor(replica_count, run_replica);
    else
        for (std::size_t r = 0; r < replica_count; ++r)
            run_replica(r);
}

void
McEngine::runRoundRange(const float *xs, std::size_t stride,
                        const std::uint32_t *indices, std::size_t count,
                        int r_begin, int r_end,
                        std::vector<std::int64_t> &raw)
{
    const std::size_t out_dim = program().outputDim();
    const std::size_t rounds = static_cast<std::size_t>(r_end - r_begin);
    raw.resize(rounds * count * out_dim);
    if (rounds == 0 || count == 0)
        return;

    const std::size_t replica_count =
        std::max<std::size_t>(1, std::min(executors_, rounds));
    ensureReplicas(replica_count);

    // Oversubscription guard: when round-level scheduling fans the
    // rounds over the pool (replica_count > 1), backends must not
    // also fan the image dimension over the same workers. With a
    // single replica (one round, or a tail chunk shrunk to one) the
    // rounds run serially, so the pool is free — hand it to the
    // backend for intra-pass (image-dim) parallelism; weights are
    // frozen per round, so results stay bit-identical either way.
    ThreadPool *pool =
        mc_.threads == 0 ? &ThreadPool::global() : ownPool_.get();
    const bool round_level = pool != nullptr && replica_count > 1;
    for (auto &replica : replicas_)
        replica.executor->setWorkPool(round_level ? nullptr : pool);

    // Static round assignment, mirroring runUnits: replica r owns
    // rounds r, r+R, r+2R, ... A round's output depends only on its
    // seeded stream and its images, so the partition is a performance
    // choice, not a semantic one.
    auto run_replica = [&](std::size_t r) {
        Replica &replica = replicas_[r];
        for (std::size_t u = r; u < rounds; u += replica_count) {
            // Seed by the GLOBAL round index: the stream of round
            // r_begin + u is the one the fixed-T run uses for that same
            // round, so surviving images' samples are bit-identical to
            // it regardless of chunking or who else is still active.
            const std::uint64_t round =
                static_cast<std::uint64_t>(r_begin) + u;
            std::int64_t *out = raw.data() + u * count * out_dim;
            auto run_round = [&] {
                if (indices)
                    replica.executor->runRoundBatchGather(
                        xs, stride, indices, count, out);
                else
                    replica.executor->runRoundBatch(xs, count, stride,
                                                    out);
            };
            // A cached round's weights are already in the arena; it
            // draws no eps, so it needs no stream.
            if (weightCache_ &&
                replica.executor->bindCacheRound(*weightCache_, round))
                run_round();
            else
                withStream(replica, roundSeed(mc_.seedBase, round),
                           run_round);
        }
    };

    if (round_level)
        pool->parallelFor(replica_count, run_replica);
    else
        for (std::size_t r = 0; r < replica_count; ++r)
            run_replica(r);
}

void
McEngine::reduceProbs(const std::int64_t *raw, std::size_t sample_stride,
                      std::size_t samples, float *probs,
                      float *sample_probs) const
{
    const std::size_t out_dim = program().outputDim();
    const auto &act = program().activationFormat;
    std::vector<float> logits(out_dim);
    std::fill(probs, probs + out_dim, 0.0f);
    for (std::size_t s = 0; s < samples; ++s) {
        const std::int64_t *row = raw + s * sample_stride;
        for (std::size_t i = 0; i < out_dim; ++i)
            logits[i] = static_cast<float>(act.toReal(row[i]));
        nn::softmax(logits.data(), out_dim);
        if (sample_probs)
            std::copy(logits.begin(), logits.end(),
                      sample_probs + s * out_dim);
        for (std::size_t i = 0; i < out_dim; ++i)
            probs[i] += logits[i];
    }
    const float inv = 1.0f / static_cast<float>(samples);
    for (std::size_t i = 0; i < out_dim; ++i)
        probs[i] *= inv;
}

std::vector<std::size_t>
McEngine::classifyBatchImpl(const float *xs, std::size_t count,
                            std::size_t stride, std::size_t samples,
                            float *probs, float *sample_probs)
{
    const std::size_t out_dim = program().outputDim();
    std::vector<std::size_t> predictions(count, 0);
    if (count == 0)
        return predictions;

    // Both fan-outs fill one flat buffer; only the strides differ.
    // PerRound is round-major (rounds x count x outDim), PerUnit is
    // image-major (count x samples x outDim).
    std::vector<std::int64_t> raw;
    std::size_t image_step = 0;
    std::size_t sample_step = 0;
    if (mc_.schedule == McSchedule::PerRound) {
        runRoundRange(xs, stride, /*indices=*/nullptr, count, 0,
                      static_cast<int>(samples), raw);
        image_step = out_dim;
        sample_step = count * out_dim;
    } else {
        runUnits(xs, count, stride, samples, raw);
        image_step = samples * out_dim;
        sample_step = out_dim;
    }

    std::vector<float> acc(out_dim);
    for (std::size_t image = 0; image < count; ++image) {
        reduceProbs(raw.data() + image * image_step, sample_step,
                    samples, acc.data(),
                    sample_probs
                        ? sample_probs + image * samples * out_dim
                        : nullptr);
        if (probs)
            std::copy(acc.begin(), acc.end(), probs + image * out_dim);
        predictions[image] = nn::argmax(acc.data(), acc.size());
    }
    return predictions;
}

std::vector<std::size_t>
McEngine::classifyBatch(const float *xs, std::size_t count,
                        std::size_t stride, float *probs)
{
    return classifyBatchImpl(
        xs, count, stride, static_cast<std::size_t>(config_.mcSamples),
        probs, nullptr);
}

McBatchResult
McEngine::classifyBatchDetailed(const float *xs, std::size_t count,
                                std::size_t stride,
                                bool keep_sample_probs)
{
    const std::size_t out_dim = program().outputDim();
    const std::size_t samples =
        static_cast<std::size_t>(config_.mcSamples);
    McBatchResult result;
    result.probs.resize(count * out_dim);
    if (keep_sample_probs)
        result.sampleProbs.resize(count * samples * out_dim);
    result.predicted = classifyBatchImpl(
        xs, count, stride, samples, result.probs.data(),
        keep_sample_probs ? result.sampleProbs.data() : nullptr);
    return result;
}

McAdaptiveBatchResult
McEngine::classifyBatchAdaptive(const float *xs, std::size_t count,
                                std::size_t stride,
                                const McAdaptiveOptions &options,
                                bool keep_sample_probs)
{
    const std::size_t out_dim = program().outputDim();
    const int budget =
        options.budget > 0 ? options.budget : config_.mcSamples;
    VIBNN_ASSERT(budget >= 1, "adaptive MC needs a positive budget");

    McAdaptiveBatchResult result;
    result.predicted.assign(count, 0);
    result.probs.assign(count * out_dim, 0.0f);
    result.achieved.assign(count, 0);
    result.exitReason.assign(count, McExitReason::Budget);
    if (keep_sample_probs)
        result.sampleProbs.assign(
            count * static_cast<std::size_t>(budget) * out_dim, 0.0f);
    if (count == 0)
        return result;

    if (!options.enabled) {
        // threshold=off contract: the fixed-T path at T = budget
        // (same float reduction, same code), with the adaptive
        // bookkeeping reporting "ran the whole budget".
        result.predicted = classifyBatchImpl(
            xs, count, stride, static_cast<std::size_t>(budget),
            result.probs.data(),
            keep_sample_probs ? result.sampleProbs.data() : nullptr);
        std::fill(result.achieved.begin(), result.achieved.end(),
                  budget);
        result.meanRounds = static_cast<double>(budget);
        return result;
    }

    // The sequential per-image fallback stream of non-batched backends
    // makes image i's eps depend on how many images precede it in the
    // round — batch-composition-dependent, which adaptive compaction
    // would expose. Only the weight-reuse path has the per-image
    // independence the determinism contract needs.
    if (!executorCaps(mc_.backendId).batchedRounds)
        fatal("adaptive early-exit MC requires a batched-rounds "
              "backend (got '" + mc_.backendId + "')");

    const int chunk = std::max(options.chunk, 1);
    const auto &act = program().activationFormat;
    std::vector<stats::SequentialPosteriorTest> tests(count);
    for (auto &test : tests)
        test.reset(out_dim);
    std::vector<std::uint32_t> active(count);
    std::iota(active.begin(), active.end(), 0u);

    const bool timed = options.deadlineSeconds > 0.0;
    const auto t_start = std::chrono::steady_clock::now();

    std::vector<std::int64_t> raw;
    std::vector<float> logits(out_dim);
    int done = 0;
    while (done < budget && !active.empty()) {
        const int next = std::min(done + chunk, budget);
        runRoundRange(xs, stride, active.data(), active.size(), done,
                      next, raw);

        // Serial per-image accumulation in global round order: every
        // image's running statistics are a pure function of its own
        // sample sequence, independent of schedule and neighbours.
        for (std::size_t a = 0; a < active.size(); ++a) {
            const std::uint32_t image = active[a];
            for (int r = done; r < next; ++r) {
                const std::int64_t *row = raw.data() +
                    (static_cast<std::size_t>(r - done) * active.size() +
                     a) *
                        out_dim;
                for (std::size_t i = 0; i < out_dim; ++i)
                    logits[i] =
                        static_cast<float>(act.toReal(row[i]));
                nn::softmax(logits.data(), out_dim);
                if (keep_sample_probs)
                    std::copy(
                        logits.begin(), logits.end(),
                        result.sampleProbs.data() +
                            (static_cast<std::size_t>(image) * budget +
                             tests[image].samples()) *
                                out_dim);
                tests[image].add(logits.data());
            }
        }
        done = next;

        // Retire converged/decided images; compact the survivors.
        // This runs before the deadline check so images that settled
        // during this chunk report their true exit reason even when
        // the chunk also blew the deadline.
        std::vector<std::uint32_t> survivors;
        survivors.reserve(active.size());
        for (const std::uint32_t image : active) {
            if (done >= budget)
                break; // everyone left exits as Budget below
            const auto decision =
                tests[image].decide(options.test, budget);
            if (decision == stats::SequentialDecision::Converged)
                result.exitReason[image] = McExitReason::Converged;
            else if (decision == stats::SequentialDecision::Decided)
                result.exitReason[image] = McExitReason::Decided;
            else
                survivors.push_back(image);
        }
        if (done < budget)
            active.swap(survivors);

        // Anytime deadline (wall clock, chunk granularity): whatever
        // is still active keeps its running mean as the best answer by
        // the deadline. Images that just exhausted the budget keep
        // their Budget reason — the deadline only cuts rounds short.
        if (timed && done < budget && !active.empty()) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_start)
                    .count();
            if (elapsed >= options.deadlineSeconds) {
                for (const std::uint32_t image : active)
                    result.exitReason[image] = McExitReason::Deadline;
                active.clear();
                break;
            }
        }
    }

    double total_rounds = 0.0;
    for (std::size_t image = 0; image < count; ++image) {
        result.achieved[image] = tests[image].samples();
        total_rounds += result.achieved[image];
        tests[image].mean(result.probs.data() + image * out_dim);
        result.predicted[image] = tests[image].predicted();
    }
    result.meanRounds = total_rounds / static_cast<double>(count);
    return result;
}

std::size_t
McEngine::classify(const float *x, float *probs)
{
    return classifyBatch(x, 1, program().inputDim(), probs).front();
}

McResult
McEngine::classifyDetailed(const float *x)
{
    // For a one-image batch a PerRound round IS one per-sample pass,
    // and both fan-outs lay the mcSamples raw outputs out row by row.
    const std::size_t out_dim = program().outputDim();
    const std::size_t samples =
        static_cast<std::size_t>(config_.mcSamples);
    std::vector<std::int64_t> raw;
    if (mc_.schedule == McSchedule::PerRound)
        runRoundRange(x, program().inputDim(), /*indices=*/nullptr, 1, 0,
                      config_.mcSamples, raw);
    else
        runUnits(x, 1, program().inputDim(), samples, raw);

    McResult result;
    result.probs.assign(out_dim, 0.0f);
    reduceProbs(raw.data(), out_dim, samples, result.probs.data());
    result.predicted = nn::argmax(result.probs.data(),
                                  result.probs.size());
    result.rawSamples.resize(samples);
    for (std::size_t s = 0; s < samples; ++s)
        result.rawSamples[s].assign(raw.begin() + s * out_dim,
                                    raw.begin() + (s + 1) * out_dim);
    return result;
}

CycleStats
McEngine::stats() const
{
    CycleStats merged;
    for (const auto &replica : replicas_)
        merged += replica.executor->stats();
    return merged;
}

} // namespace vibnn::accel
