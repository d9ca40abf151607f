/**
 * @file
 * Parallel Monte-Carlo inference engine.
 *
 * VIBNN's ensemble estimate (equation (6)) averages the softmax of T
 * independent forward passes. T is config.mcSamples for the classify
 * calls and a per-call budget for classifyBatchAdaptive, so one engine
 * serves every ensemble size: no stream seed depends on T. The engine
 * schedules that estimate over ThreadPool workers, each owning a full
 * executor backend replica (any id registered with
 * accel::makeExecutor), at one of two granularities:
 *
 *  - PerUnit (fidelity): the work unit is one (image, MC sample) pass.
 *    Every unit draws fresh weights — the paper's per-pass sampling
 *    contract — and runs with a generator freshly seeded from
 *    streamSeed(seedBase, i, s).
 *  - PerRound (throughput): the work unit is one MC round over the
 *    WHOLE batch, seeded from roundSeed(seedBase, r). On a backend
 *    with caps().batchedRounds (the "batched" weight-reuse path) one
 *    weight sample per compute op serves every image of the round, so
 *    the batch costs T rounds instead of T x B passes. When only one
 *    replica runs (rounds execute serially), the engine instead hands
 *    the pool to the backend via Executor::setWorkPool so it can
 *    parallelize the image dimension inside each round; with multiple
 *    replicas the grant is revoked — round-level scheduling owns the
 *    workers, and intra-pass fan-out underneath it would oversubscribe
 *    them.
 *
 *    PerRound on a batchedRounds backend also shares its draws: round
 *    r's weight arena is a pure function of the program, the eps
 *    generator and roundSeed(seedBase, r), so every engine with the
 *    same key restores it from one process-wide WeightCache
 *    (accel/weight_cache.hh) after the first draw, skipping the eps
 *    stream entirely. The restored arena is the draw byte for byte, so
 *    the cache is invisible in the outputs.
 *
 * Determinism is by construction schedule-independent in both modes:
 * a unit's output is a pure function of (input(s), seeded eps stream),
 * so which replica executes it cannot change the result, outputs are
 * bit-identical for any thread count, and the per-image probability
 * reduction runs serially in sample order so the float accumulation
 * order is fixed too. Aggregate CycleStats are merged by summation
 * over replicas, which is also schedule-independent.
 */

#ifndef VIBNN_ACCEL_MC_ENGINE_HH
#define VIBNN_ACCEL_MC_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/executor.hh"
#include "accel/program.hh"
#include "accel/weight_cache.hh"
#include "common/thread_pool.hh"
#include "grng/generator.hh"
#include "stats/sequential_test.hh"

namespace vibnn::accel
{

/** Work-unit granularity for the Monte-Carlo fan-out. */
enum class McSchedule
{
    /** One (image, MC sample) pass per unit — fresh weight samples
     *  every pass (the paper's fidelity semantics). */
    PerUnit,
    /** One MC round over the whole batch per unit — one weight draw
     *  per compute op per round on weight-reuse backends. */
    PerRound,
};

/** Parallelization / seeding policy for McEngine. */
struct McEngineConfig
{
    /**
     * Worker parallelism. 0 sizes the engine from ThreadPool::global()
     * (workers + caller); an explicit value N runs on a private pool of
     * N executors (N == 1 means fully inline, no pool).
     */
    std::size_t threads = 0;
    /** Generator registry id used for every eps stream. */
    std::string generatorId = "rlf";
    /** Master seed; every (image, sample) stream derives from it. */
    std::uint64_t seedBase = 1;
    /** Executor backend registry id the replicas run on. */
    std::string backendId = "simulator";
    /** Fan-out granularity. */
    McSchedule schedule = McSchedule::PerUnit;
};

/** Per-image result with the per-sample detail kept. */
struct McResult
{
    std::size_t predicted = 0;
    /** Averaged class probabilities (outputDim). */
    std::vector<float> probs;
    /** Raw output-layer values of each MC pass (mcSamples x outputDim),
     *  on the activation grid — bit-comparable across runs. */
    std::vector<std::vector<std::int64_t>> rawSamples;
};

/**
 * Batched classification with the per-sample softmax distributions
 * kept — the probability hook the serving layer's uncertainty
 * decomposition (predictive entropy vs. mutual information) needs.
 */
struct McBatchResult
{
    /** Predicted class per image (count). */
    std::vector<std::size_t> predicted;
    /** Ensemble-mean probabilities, count x outputDim — bit-identical
     *  with what classifyBatch reports (same serial reduction). */
    std::vector<float> probs;
    /** Per-sample softmax distributions,
     *  count x mcSamples x outputDim row-major. */
    std::vector<float> sampleProbs;
};

/** Why an image's adaptive Monte-Carlo sampling stopped. */
enum class McExitReason
{
    /** Ran the full round budget (the hard images — and every image
     *  when the early-exit test is disabled). */
    Budget,
    /** The sequential CI test settled the argmax early. */
    Converged,
    /** The vote gap exceeded the remaining budget: mathematically
     *  frozen. */
    Decided,
    /** The wall-clock deadline expired (anytime mode): the running
     *  mean at that point is the best answer by the deadline. */
    Deadline,
};

/** Policy of classifyBatchAdaptive. */
struct McAdaptiveOptions
{
    /** Round budget per image; 0 uses config.mcSamples. */
    int budget = 0;
    /** Rounds per increment between convergence checkpoints. Small
     *  chunks exit earlier; larger ones amortize round dispatch. */
    int chunk = 4;
    /** The sequential convergence test (confidence, minSamples). */
    stats::SequentialTestConfig test;
    /** false disables early exit entirely: every image runs the full
     *  budget through the EXACT fixed-T code path (bit-identical to
     *  classifyBatchDetailed at mcSamples = budget — the threshold=off
     *  contract). */
    bool enabled = true;
    /** Anytime deadline in seconds from call entry, checked at chunk
     *  boundaries; <= 0 means none. Wall-clock-dependent by nature, so
     *  the bit-determinism contract applies to runs without one. */
    double deadlineSeconds = 0.0;
};

/** classifyBatchAdaptive output: per-image posterior plus how many
 *  rounds each image actually consumed and why it stopped. */
struct McAdaptiveBatchResult
{
    /** Predicted class per image (count). */
    std::vector<std::size_t> predicted;
    /** Running ensemble-mean probabilities at exit, count x outputDim
     *  (double-accumulated in round order, then narrowed). */
    std::vector<float> probs;
    /** Per-sample softmax distributions, count x budget x outputDim
     *  row-major, zero-filled past each image's achieved rounds (the
     *  serving layer reads achieved[i] rows). Empty unless
     *  keep_sample_probs. */
    std::vector<float> sampleProbs;
    /** Rounds actually consumed per image. */
    std::vector<int> achieved;
    /** Why each image stopped. */
    std::vector<McExitReason> exitReason;
    /** Mean of achieved over the batch — the effective T. */
    double meanRounds = 0.0;
};

/** Parallel Monte-Carlo classification over executor-backend
 *  replicas. */
class McEngine
{
  public:
    McEngine(const QuantizedProgram &program,
             const AcceleratorConfig &config,
             const McEngineConfig &mc = McEngineConfig{});

    ~McEngine();

    McEngine(const McEngine &) = delete;
    McEngine &operator=(const McEngine &) = delete;

    /** Classify one image (config.mcSamples parallel passes). */
    std::size_t classify(const float *x, float *probs = nullptr);

    /** Classify with per-sample raw outputs retained. */
    McResult classifyDetailed(const float *x);

    /**
     * Classify a batch: `count` images of `stride` floats each,
     * row-major. Returns the predicted class per image; if `probs` is
     * non-null it receives count * outputDim averaged probabilities.
     */
    std::vector<std::size_t> classifyBatch(const float *xs,
                                           std::size_t count,
                                           std::size_t stride,
                                           float *probs = nullptr);

    /**
     * Classify a batch and keep the per-sample softmax distributions
     * (for mutual-information / BALD style uncertainty decomposition).
     * The mean probabilities are reduced in the exact same serial
     * sample order as classifyBatch, so `probs` is bit-identical to
     * what classifyBatch would report at the same seeds. With
     * keep_sample_probs false the count x T x outputDim buffer is
     * never materialized (sampleProbs stays empty) — for large
     * prediction-only batches.
     */
    McBatchResult classifyBatchDetailed(const float *xs,
                                        std::size_t count,
                                        std::size_t stride,
                                        bool keep_sample_probs = true);

    /**
     * Adaptive early-exit classification: run MC rounds in increments
     * of options.chunk, feed each image's per-round softmax into its
     * own SequentialPosteriorTest, and retire images from the active
     * set as soon as the test says more rounds cannot change the
     * decision — the easy images finish after minSamples rounds while
     * the hard ones run to the budget. Retired images leave the round
     * via active-set compaction (Executor::runRoundBatchGather), so
     * they stop occupying GEMM tiles immediately.
     *
     * Determinism: round r is always seeded roundSeed(seedBase, r) and
     * the batched weight draw is batch-independent, so a retained
     * image's eps stream — and therefore its sample sequence — is
     * bit-identical to the fixed-T run no matter which neighbours have
     * already retired; decisions and running means are serial per-image
     * double-precision reductions in round order. Results are therefore
     * bit-identical across thread counts AND batch compositions
     * (ctest-pinned). With options.enabled == false the call routes
     * through the exact fixed-T path at T = budget and reproduces, byte
     * for byte, classifyBatchDetailed on an engine built with
     * mcSamples = budget — so one engine serves every ensemble size.
     *
     * Requires a backend with caps().batchedRounds (the sequential
     * per-image fallback stream would make per-image outputs depend on
     * batch composition); fatal() otherwise.
     */
    McAdaptiveBatchResult
    classifyBatchAdaptive(const float *xs, std::size_t count,
                          std::size_t stride,
                          const McAdaptiveOptions &options,
                          bool keep_sample_probs = true);

    /** Aggregate statistics merged (summed) over all replicas. */
    CycleStats stats() const;

    /** Replicas instantiated so far: one from construction on, growing
     *  up to the executor count. */
    std::size_t replicaCount() const { return replicas_.size(); }

    /** Executor parallelism the engine schedules for. */
    std::size_t executorCount() const { return executors_; }

    /** The shared round cache PerRound passes restore from; null on
     *  PerUnit schedules and backends without batchedRounds. */
    const WeightCache *weightCache() const { return weightCache_.get(); }

    const AcceleratorConfig &config() const { return config_; }
    /** Replica 0's program. Safe to read while another thread grows
     *  the replica set: the pointer is fixed at construction. */
    const QuantizedProgram &program() const { return *program_; }

    /**
     * Seed of the eps stream for (image, sample) under `seed_base` —
     * exposed so tests can reproduce any single pass serially.
     */
    static std::uint64_t streamSeed(std::uint64_t seed_base,
                                    std::uint64_t image,
                                    std::uint64_t sample);

    /**
     * Seed of the eps stream of MC round `round` in PerRound mode —
     * exposed so tests can reproduce any single round serially.
     */
    static std::uint64_t roundSeed(std::uint64_t seed_base,
                                   std::uint64_t round);

  private:
    struct Replica
    {
        std::unique_ptr<grng::GaussianGenerator> idleGenerator;
        std::unique_ptr<Executor> executor;
    };

    /** Append one replica running `program`. */
    void addReplica(const QuantizedProgram &program);

    /** Ensure replicas [0, n) exist. */
    void ensureReplicas(std::size_t n);

    /**
     * Point the replica at the eps stream seeded `seed` (rekeying its
     * idle generator in place when the generator supports it, else
     * constructing one), run `body`, and leave the replica on its idle
     * stream again.
     */
    template <typename Body>
    void withStream(Replica &replica, std::uint64_t seed, Body &&body);

    /**
     * The PerUnit parallel fan-out: run every (image, sample) unit of
     * the batch into `raw`, resized to count x samples x outputDim
     * (image-major). Unit (i, s) runs on the stream seeded
     * streamSeed(seedBase, i, s); partitioning is replica-static and
     * results depend only on the unit, so the schedule is invisible in
     * the output.
     */
    void runUnits(const float *xs, std::size_t count, std::size_t stride,
                  std::size_t samples, std::vector<std::int64_t> &raw);

    /**
     * The PerRound parallel fan-out: run global MC rounds
     * [r_begin, r_end) over `count` images, fanned over replicas.
     * Null `indices` means the whole batch (rows 0..count of xs, via
     * runRoundBatch); otherwise the active subset indices[0..count)
     * (gather rounds). `raw` is resized to
     * (r_end - r_begin) x count x outputDim, round-major. Round r is
     * seeded roundSeed(seedBase, r) — the GLOBAL index — so the stream
     * any image sees is independent of chunking, of the partition, and
     * of which other images remain. A round the weight cache already
     * holds is restored instead and never touches its stream.
     */
    void runRoundRange(const float *xs, std::size_t stride,
                       const std::uint32_t *indices, std::size_t count,
                       int r_begin, int r_end,
                       std::vector<std::int64_t> &raw);

    /** Softmax-average `samples` raw pass outputs — sample s at
     *  raw + s * sample_stride — into `probs`, serially in sample
     *  order: the same fixed accumulation sequence Executor::classify
     *  performs, regardless of thread count. A non-null `sample_probs`
     *  also receives the samples x outputDim per-sample distributions
     *  (without changing the mean). */
    void reduceProbs(const std::int64_t *raw, std::size_t sample_stride,
                     std::size_t samples, float *probs,
                     float *sample_probs = nullptr) const;

    /** The fixed-T path at T = `samples`: the shared body of
     *  classifyBatch, classifyBatchDetailed and the disabled
     *  classifyBatchAdaptive. Either output pointer may be null. */
    std::vector<std::size_t> classifyBatchImpl(const float *xs,
                                               std::size_t count,
                                               std::size_t stride,
                                               std::size_t samples,
                                               float *probs,
                                               float *sample_probs);

    AcceleratorConfig config_;
    McEngineConfig mc_;
    std::size_t executors_;
    /** Private pool when an explicit thread count was requested. */
    std::unique_ptr<ThreadPool> ownPool_;
    std::vector<Replica> replicas_;
    const QuantizedProgram *program_ = nullptr;
    std::shared_ptr<WeightCache> weightCache_;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_MC_ENGINE_HH
