/**
 * @file
 * Cross-request weight-ensemble cache — the PerRound draw, made once.
 *
 * On a batchedRounds backend the weight arena of MC round r is a pure
 * function of the program's compute-op shapes and (mu, sigma) planes,
 * its weight and eps grids, the eps generator design, and the stream
 * seed McEngine::roundSeed(seedBase, r). Every later pass that reaches
 * round r would redraw the exact same weights, and the draw (GRNG +
 * fused sample + int16 pack) is the dominant cost of a small-batch
 * round. The cache keeps each round's draw after the first, so Fan et
 * al.'s per-batch weight reuse (PAPERS.md, arXiv:2105.09163) extends
 * across requests. Results stay bit-identical by construction: a
 * restored round is the byte-for-byte arena the draw would produce.
 *
 * Layout and sharing:
 *
 *  - One cache per distinct key, shared process-wide by every engine
 *    that acquires it (serving shards) and by every ensemble size one
 *    engine serves: a T=8 pass's rounds are the first 8 of a T=32
 *    pass's.
 *    The registry holds caches weakly, so a cache's memory goes away
 *    with the last engine using it.
 *  - Rounds are stored at the narrowest signed width that holds the
 *    program's weight grid (1 B per weight for 8-bit grids, 2 B at
 *    most for the <= 16-bit grids AcceleratorConfig admits), in one
 *    anonymous mapping sized to kBudgetBytes. Pages are committed only
 *    as rounds fill and the whole mapping is released with the cache,
 *    so freed round storage never lingers in the heap.
 *  - Rounds past the budget (round index >= roundCapacity()) are not
 *    cached: they draw fresh every time, which bounds the cache for
 *    any caller-chosen T.
 *  - The registry is indexed by a digest of the key, and the full key
 *    is compared on every hit, so a digest collision can never serve
 *    another program's weights.
 *
 * Filling: each round slot moves empty -> filling -> ready by
 * compare-and-swap. The engine that wins the claim stores its draw;
 * a loser keeps its own draw and stores nothing. Readers check a slot
 * with an acquire load, and a ready slot is never written again.
 *
 * The cache stores clean draws only: the batched runner offers its
 * arena before fault injection and re-runs injection on every restored
 * copy, so chaos runs replay byte-identically and flips never
 * accumulate.
 */

#ifndef VIBNN_ACCEL_WEIGHT_CACHE_HH
#define VIBNN_ACCEL_WEIGHT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/program.hh"

namespace vibnn::accel
{

/** Shared, bounded store of drawn MC-round weight arenas. */
class WeightCache
{
  public:
    /** Address space reserved per cache; rounds beyond it draw fresh.
     *  At 1 B per weight this holds 168 rounds of the 784-200-200-10
     *  MLP (198,800 weights per round). */
    static constexpr std::size_t kBudgetBytes = std::size_t{32} << 20;

    /**
     * The live cache for (program, generator id, seed base), or a new
     * empty one registered for it. Only the program's compute-op
     * shapes, parameter planes and weight/eps grids enter the key —
     * the parts a round's draw depends on.
     */
    static std::shared_ptr<WeightCache>
    acquire(const QuantizedProgram &program,
            const std::string &generator_id, std::uint64_t seed_base);

    /** Bytes of filled rounds over every live cache in the process. */
    static std::uint64_t totalResidentBytes();

    ~WeightCache();

    WeightCache(const WeightCache &) = delete;
    WeightCache &operator=(const WeightCache &) = delete;

    /** Rounds that fit the budget (round indices [0, capacity)). */
    std::size_t roundCapacity() const { return capacity_; }

    /** Weights per round (the runner's arena length). */
    std::size_t weightsPerRound() const { return weights_; }

    /** Bytes one stored round occupies (weights x storage width). */
    std::size_t roundBytes() const { return weights_ * width_; }

    /** Bytes of this cache's filled rounds. */
    std::uint64_t residentBytes() const
    {
        return resident_.load(std::memory_order_relaxed);
    }

    /**
     * Widen round `round` into `arena` (weightsPerRound() int32s) when
     * it is ready; false — `arena` untouched — when it is not filled
     * yet or lies past the budget.
     */
    bool restore(std::uint64_t round, std::int32_t *arena) const;

    /**
     * Offer a freshly drawn arena as round `round`. Stored only when
     * this call wins the slot's empty -> filling claim; a no-op past
     * the budget or when another engine already claimed the round.
     */
    void offer(std::uint64_t round, const std::int32_t *arena);

  private:
    struct Key;

    WeightCache(std::unique_ptr<Key> key, std::size_t width);

    std::unique_ptr<Key> key_;
    std::size_t weights_ = 0;
    /** Storage width per weight in bytes (1, 2 or 4). */
    std::size_t width_ = 1;
    std::size_t capacity_ = 0;
    /** The anonymous mapping (capacity_ rounds), or null. */
    unsigned char *base_ = nullptr;
    std::size_t mapBytes_ = 0;
    /** Per-round slot state: empty, filling, ready. */
    std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
    std::atomic<std::uint64_t> resident_{0};
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_WEIGHT_CACHE_HH
