/**
 * @file
 * Batched weight-reuse inference path — the "batched" executor backend.
 *
 * The fidelity executors (Simulator, FunctionalRunner) draw a fresh
 * weight sample for every MAC lane of every pass: an MC-ensemble
 * classification of B images at T samples costs T x B full
 * sample-and-compute passes. Fan et al.'s FPGA BNN accelerator
 * (PAPERS.md, arXiv:2105.09163) shows the dominant serving win is to
 * reuse ONE sampled weight set across a whole input batch per
 * Monte-Carlo round: the ensemble estimate then costs T blocked-GEMM
 * rounds, and the per-round weight draw amortizes over B images.
 *
 * Per runRoundBatch call this backend:
 *
 *   1. fills a reusable, 64-byte-aligned int32 SoA arena with one
 *      weight sample per compute op. A round bound to a filled slot of
 *      the weight-ensemble cache (bindCacheRound, accel/weight_cache.hh)
 *      restores it from there; any other round draws it — the bank's
 *      (mu, sigma) planes go through the fused
 *      WeightGenerator::sampleBlockFused path (w = mu + sigma * eps on
 *      the weight grid, eps from the block GRNG fill() ring, identical
 *      stream and arithmetic as the fidelity executors' per-lane draws)
 *      straight into the arena, no staging copy. Unbound calls (the
 *      standalone runner) always draw;
 *   2. walks the op list over batch-major int32 activation buffers
 *      (count x width on the activation grid — every admissible
 *      format is <= 32 bits, so the narrowing is lossless; products
 *      still accumulate in int64): Dense runs as image-tiled GEMM
 *      against the arena through the dispatched SIMD kernel layer
 *      (accel/kernels/), ConvLowered as per-image im2col + an
 *      (outChannels x patchSize) GEMM over positions, and Pool/
 *      Flatten per image. The image tile is cache-aware (sized from
 *      the host L1/L2, VIBNN_GEMM_TILE overrides), and when the
 *      operand formats fit int16 the arena keeps a packed copy so the
 *      AVX2 tier can run its madd fast path.
 *
 * The datapath arithmetic (DatapathKernel: sampleWeight, finishNeuron,
 * finishOutputNeuron) is compiled into the kernel layer's scalar
 * reference and every SIMD tier is ctest-pinned bit-exact against it,
 * so each neuron evaluation is exact fixed point regardless of the
 * dispatched tier; what changes is the *sampling schedule*: one weight
 * draw per op per round, shared across the batch and across conv
 * positions (the software direct estimator's semantics) instead of
 * fresh draws per pass and per position. Results are therefore
 * statistically equivalent — the per-round weights come from the same
 * variational posterior — but not bit-identical to the canonical eps
 * order (with sigma = 0 the two paths coincide exactly; a ctest pins
 * that down). VIBNN's per-pass sampling contract holds per round:
 * every round is one independent posterior draw.
 *
 * Intra-pass parallelism: setWorkPool() hands the runner a ThreadPool;
 * rounds then shard the image dimension across it. Weights are frozen
 * for the whole round and every image's pipeline is independent, so
 * outputs are bit-identical for any shard count (ctest-pinned across
 * 1/2/5 threads). McEngine revokes the pool whenever its round-level
 * scheduling already owns the workers (oversubscription guard).
 */

#ifndef VIBNN_ACCEL_BATCHED_RUNNER_HH
#define VIBNN_ACCEL_BATCHED_RUNNER_HH

#include <cstdint>
#include <vector>

#include "accel/config.hh"
#include "accel/executor.hh"
#include "accel/kernels/kernels.hh"
#include "accel/program.hh"
#include "accel/weight_generator.hh"

namespace vibnn::accel
{

/** Throughput-first weight-reuse executor backend. */
class BatchedRunner : public Executor
{
  public:
    BatchedRunner(const QuantizedProgram &program,
                  const AcceleratorConfig &config,
                  grng::GaussianGenerator *generator);

    /** Untimed; true batched weight reuse. */
    ExecutorCaps
    caps() const override
    {
        return {/*cycleAccurate=*/false, /*batchedRounds=*/true};
    }

    /** One forward pass == a one-image round (the weight sample is
     *  still shared across conv positions — this backend's sampling
     *  semantics, not the canonical per-position order). */
    std::vector<std::int64_t> runPass(const float *x) override;

    /** One MC round: one weight sample per compute op, reused across
     *  all `count` images (and across conv positions). */
    void runRoundBatch(const float *xs, std::size_t count,
                       std::size_t stride, std::int64_t *out) override;

    /** Active-subset round (adaptive early-exit compaction): the
     *  gather folds into input quantization — image slot b quantizes
     *  source row indices[b] directly — so no float-row staging copy.
     *  The weight draw and per-image arithmetic are those of
     *  runRoundBatch exactly. */
    void runRoundBatchGather(const float *xs, std::size_t stride,
                             const std::uint32_t *indices,
                             std::size_t count,
                             std::int64_t *out) override;

    /** Restore round `round` from `cache` into the arena when it is
     *  filled (the next round then skips its draw), else bind the next
     *  round's draw to be offered to `cache`. */
    bool bindCacheRound(WeightCache &cache, std::uint64_t round) override;

    /** Swap the eps source (round scheduling). Not owned. */
    void setGenerator(grng::GaussianGenerator *generator) override;

    /** Intra-pass image-dimension parallelism (see file comment).
     *  Not owned; nullptr (the default) runs rounds serially. */
    void setWorkPool(ThreadPool *pool) override;

    /** Pass/sample counters only (untimed backend). */
    const CycleStats &stats() const override { return stats_; }

    const QuantizedProgram &program() const override { return program_; }
    const AcceleratorConfig &config() const override { return config_; }

    /** The GEMM image-tile in effect (cache-derived or
     *  VIBNN_GEMM_TILE) — introspection for benches/tests. */
    std::size_t imageTile() const { return imageTile_; }

  private:
    /** Shared round body: slot b of the round reads source row
     *  (indices ? indices[b] : b) of `xs`. Both public round entry
     *  points funnel here. */
    void runRoundImpl(const float *xs, std::size_t stride,
                      const std::uint32_t *indices, std::size_t count,
                      std::int64_t *out);

    /** Draw this round's weight set into the arena (op order). With a
     *  work pool and a splittable eps source (philox), the draw itself
     *  shards across workers via the counter-based random-access path —
     *  bit-identical to the sequential draw for any shard count. */
    void sampleRoundWeights();

    /** Sharded body of sampleRoundWeights: sample global weight indices
     *  [w0, w1) using eps stream offsets base + index. */
    void sampleWeightRange(std::size_t shard, std::size_t w0,
                           std::size_t w1, std::uint64_t base);

    /** Chaos-only bit-flip injection over the round's weight arena
     *  (the "accel.weights.bitflip" fault site, p = per-bit flip
     *  rate), after it was drawn or restored. No-op unless the fault
     *  registry is armed. The flip pattern is seeded from a content
     *  hash of the arena itself, so it is deterministic across thread
     *  counts and shard assignments (the arena is bit-identical by
     *  contract) and a restored round flips exactly like its draw;
     *  flips do not accumulate — every round rewrites the whole arena
     *  first, and the cache only ever holds clean draws. */
    void injectWeightFaults();

    /** Rebuild the int16 mirror of every madd-eligible op from the
     *  int32 arena. */
    void repackInt16();

    /** Run body(shard, begin, end) over a static partition of
     *  [0, count) — parallel when a work pool is set, serial (one
     *  shard) otherwise. Outputs are per-image, so the partition is
     *  invisible in the results. */
    template <typename Body>
    void forImageShards(std::size_t count, const Body &body);

    /** Dense bank over images [begin, end): image-tiled GEMM through
     *  the kernel layer. */
    void runDenseBatch(const ProgramOp &op, std::size_t op_index,
                       std::size_t begin, std::size_t end,
                       const std::int32_t *act_in, std::int32_t *act_out);

    /** ConvLowered with the shared filter sample over images
     *  [begin, end): per image im2col + (outChannels x patchSize)
     *  GEMM over positions, using shard-local patch scratch. */
    void runConvBatch(const ProgramOp &op, std::size_t op_index,
                      std::size_t shard, std::size_t begin,
                      std::size_t end, const std::int32_t *act_in,
                      std::int32_t *act_out);

    QuantizedProgram program_;
    AcceleratorConfig config_;
    DatapathKernel kernel_;
    WeightGenerator weightGen_;
    CycleStats stats_;

    /** SoA weight arena: one flat int32 slab per compute op (offsets
     *  indexed like program_.ops; non-compute ops share the next
     *  base), reused across rounds; 64-byte-aligned for the SIMD
     *  tiers. */
    kernels::AlignedVector<std::int32_t> weightArena_;
    std::vector<std::size_t> opWeightBase_;
    /** int16-packed arena mirror for ops eligible for the madd fast
     *  path (same offsets; untouched for ineligible ops). */
    kernels::AlignedVector<std::int16_t> weightArena16_;
    /** Per-op madd-path eligibility: operands fit int16 and
     *  inDim * max|w| * max|x| < 2^31 (see GemmArgs::weights16). */
    std::vector<bool> opInt16_;
    /** Any op eligible? Gates the int16 mirror/staging allocations. */
    bool anyInt16_ = false;
    /** Finish-stage parameters shared by every op (relu varies). */
    kernels::GemmFinish finishBase_;

    /** Widest activation window any op stages (buffer row width). */
    std::size_t laneWidth_ = 0;
    /** GEMM image tile (cache-aware; VIBNN_GEMM_TILE overrides). */
    std::size_t imageTile_ = 16;
    /** Batch-major ping-pong activation buffers (count x laneWidth_),
     *  int32 on the activation grid, 64-byte-aligned. Each round
     *  resizes them without zeroing, so slots past an op's output
     *  width keep what earlier ops or rounds left there. Nothing reads
     *  those slots: every op reads only the inSize values its
     *  predecessor wrote (validateProgram enforces the chain),
     *  im2colRaw synthesizes conv padding instead of reading it, the
     *  GEMM kernels never read past inDim, and the output copy reads
     *  only the last op's outDim. */
    kernels::AlignedVector<std::int32_t> actA_, actB_;
    /** int16-packed staging of the current op's input activations
     *  (madd fast path only). */
    kernels::AlignedVector<std::int16_t> act16_;
    /** Per-shard im2col patch scratch (shard-local so parallel conv
     *  images never share staging). */
    std::vector<std::vector<std::int32_t>> patches_;
    std::vector<std::vector<std::int16_t>> patches16_;
    /** Per-shard eps scratch for the sharded weight draw (sized in
     *  setWorkPool; one chunk per shard, reused across ops). */
    std::vector<kernels::AlignedVector<std::int32_t>> epsShard_;
    /** Compute ops in op order, for the sharded draw's range walk. */
    std::vector<std::size_t> computeOps_;

    /** Intra-pass worker pool (not owned; nullptr = serial). */
    ThreadPool *workPool_ = nullptr;

    /** The next round's cache binding (bindCacheRound), consumed by
     *  that round: restored_ means the arena already holds its
     *  weights; otherwise a non-null boundCache_ receives its draw. */
    bool restored_ = false;
    WeightCache *boundCache_ = nullptr;
    std::uint64_t boundRound_ = 0;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_BATCHED_RUNNER_HH
