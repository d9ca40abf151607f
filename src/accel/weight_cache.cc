#include "accel/weight_cache.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>

#include <sys/mman.h>

namespace vibnn::accel
{

namespace
{

enum : std::uint8_t
{
    kEmpty = 0,
    kFilling = 1,
    kReady = 2,
};

/** Narrowest signed width (bytes) holding every value in [lo, hi]. */
std::size_t
widthFor(std::int64_t lo, std::int64_t hi)
{
    if (lo >= INT8_MIN && hi <= INT8_MAX)
        return 1;
    if (lo >= INT16_MIN && hi <= INT16_MAX)
        return 2;
    return 4;
}

/** body(T{}) for T the signed integer type `width` bytes wide. */
template <typename Body>
decltype(auto)
withWidth(std::size_t width, const Body &body)
{
    if (width == 1)
        return body(std::int8_t{});
    if (width == 2)
        return body(std::int16_t{});
    return body(std::int32_t{});
}

// Values move in and out of the byte storage through std::memcpy,
// the defined way to store an object's bytes into plain storage.
template <typename T>
T
loadAs(const unsigned char *src, std::size_t i)
{
    T v;
    std::memcpy(&v, src + i * sizeof(T), sizeof(T));
    return v;
}

template <typename T>
void
narrowAs(const std::int32_t *src, std::size_t n, unsigned char *dst)
{
    for (std::size_t i = 0; i < n; ++i) {
        const T v = static_cast<T>(src[i]);
        std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
    }
}

template <typename T>
void
widenAs(const unsigned char *src, std::size_t n, std::int32_t *dst)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = loadAs<T>(src, i);
}

template <typename T>
bool
sameAs(const unsigned char *stored, const std::int32_t *values,
       std::size_t n)
{
    // OR-reduce instead of an early exit, so the loop vectorizes.
    std::int32_t diff = 0;
    for (std::size_t i = 0; i < n; ++i)
        diff |= loadAs<T>(stored, i) ^ values[i];
    return diff == 0;
}

/** Store n int32 values at `width` bytes each (values must fit). */
void
narrow(const std::int32_t *src, std::size_t n, std::size_t width,
       unsigned char *dst)
{
    withWidth(width, [=](auto type) {
        narrowAs<decltype(type)>(src, n, dst);
    });
}

void
widen(const unsigned char *src, std::size_t n, std::size_t width,
      std::int32_t *dst)
{
    withWidth(width, [=](auto type) {
        widenAs<decltype(type)>(src, n, dst);
    });
}

/** True when n values stored at `width` bytes equal `values`. */
bool
same(const unsigned char *stored, const std::int32_t *values,
     std::size_t n, std::size_t width)
{
    return withWidth(width, [=](auto type) {
        return sameAs<decltype(type)>(stored, values, n);
    });
}

std::uint64_t
mixIn(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
}

std::atomic<std::uint64_t> g_totalResident{0};

} // namespace

/** Everything a round's draw depends on besides the round index. */
struct WeightCache::Key
{
    /** (outDim, inDim) of every compute op, in op order. */
    std::vector<std::size_t> shapes;
    /** Weight and eps grids: total and fractional bits. */
    std::array<int, 4> formats{};
    std::string generatorId;
    std::uint64_t seedBase = 0;
    /** mu then sigma plane of every compute op, in op order, stored at
     *  planeWidth bytes per value. */
    std::size_t planeWidth = 1;
    std::vector<unsigned char> planes;

    /** The key of (program, generator id, seed) without its planes —
     *  cheap to build, so a hit never copies them. */
    static Key
    header(const QuantizedProgram &program, const std::string &generator_id,
           std::uint64_t seed_base)
    {
        Key key;
        key.formats = {program.weightFormat.totalBits(),
                       program.weightFormat.fracBits(),
                       program.epsFormat.totalBits(),
                       program.epsFormat.fracBits()};
        key.generatorId = generator_id;
        key.seedBase = seed_base;
        for (const auto &op : program.ops)
            if (op.isCompute()) {
                key.shapes.push_back(op.bank.outDim);
                key.shapes.push_back(op.bank.inDim);
            }
        return key;
    }

    /** Digest of the header fields: it picks the registry bucket, and
     *  planesMatch() tells programs within a bucket apart. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = mixIn(seedBase, generatorId.size());
        for (const std::size_t s : shapes)
            h = mixIn(h, s);
        for (const int f : formats)
            h = mixIn(h, static_cast<std::uint64_t>(f));
        for (const char c : generatorId)
            h = mixIn(h, static_cast<unsigned char>(c));
        return h;
    }

    bool
    sameHeader(const Key &other) const
    {
        return shapes == other.shapes && formats == other.formats &&
            generatorId == other.generatorId && seedBase == other.seedBase;
    }

    /** Copy the program's planes in, at the narrowest width that holds
     *  every value. */
    void
    storePlanes(const QuantizedProgram &program)
    {
        std::int64_t lo = 0, hi = 0;
        std::size_t values = 0;
        forEachPlane(program, [&](const std::vector<std::int32_t> &plane) {
            for (const std::int32_t v : plane) {
                lo = std::min<std::int64_t>(lo, v);
                hi = std::max<std::int64_t>(hi, v);
            }
            values += plane.size();
        });
        planeWidth = widthFor(lo, hi);
        planes.resize(values * planeWidth);
        unsigned char *at = planes.data();
        forEachPlane(program, [&](const std::vector<std::int32_t> &plane) {
            narrow(plane.data(), plane.size(), planeWidth, at);
            at += plane.size() * planeWidth;
        });
    }

    /** True when the program's planes equal the stored ones (for a
     *  program with the same header, whose plane sizes agree). */
    bool
    planesMatch(const QuantizedProgram &program) const
    {
        const unsigned char *at = planes.data();
        bool equal = true;
        forEachPlane(program, [&](const std::vector<std::int32_t> &plane) {
            equal = equal && same(at, plane.data(), plane.size(), planeWidth);
            at += plane.size() * planeWidth;
        });
        return equal;
    }

    /** body(plane) over mu then sigma of every compute op, in op order. */
    template <typename Body>
    static void
    forEachPlane(const QuantizedProgram &program, const Body &body)
    {
        for (const auto &op : program.ops)
            if (op.isCompute()) {
                body(op.bank.muWeight);
                body(op.bank.sigmaWeight);
            }
    }
};

namespace
{

/** Live caches by key digest, held weakly. */
struct Registry
{
    std::mutex mutex;
    std::multimap<std::uint64_t, std::weak_ptr<WeightCache>> caches;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

} // namespace

std::shared_ptr<WeightCache>
WeightCache::acquire(const QuantizedProgram &program,
                     const std::string &generator_id,
                     std::uint64_t seed_base)
{
    Key key = Key::header(program, generator_id, seed_base);
    const std::uint64_t digest = key.digest();

    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::shared_ptr<WeightCache> found;
    for (auto it = reg.caches.begin(); it != reg.caches.end();) {
        auto live = it->second.lock();
        if (!live) {
            it = reg.caches.erase(it);
            continue;
        }
        // The digest only narrows the search; the full key decides.
        if (!found && it->first == digest && live->key_->sameHeader(key) &&
            live->key_->planesMatch(program))
            found = std::move(live);
        ++it;
    }
    if (found)
        return found;
    key.storePlanes(program);
    // Sampled weights saturate on the weight grid before the arena
    // store, so the grid's range bounds every value a round holds.
    std::shared_ptr<WeightCache> cache(new WeightCache(
        std::make_unique<Key>(std::move(key)),
        widthFor(program.weightFormat.rawMin(),
                 program.weightFormat.rawMax())));
    reg.caches.emplace(digest, cache);
    return cache;
}

std::uint64_t
WeightCache::totalResidentBytes()
{
    return g_totalResident.load(std::memory_order_relaxed);
}

WeightCache::WeightCache(std::unique_ptr<Key> key, std::size_t width)
    : key_(std::move(key)), width_(width)
{
    for (std::size_t i = 0; i + 1 < key_->shapes.size(); i += 2)
        weights_ += key_->shapes[i] * key_->shapes[i + 1];
    capacity_ = weights_ > 0 ? kBudgetBytes / roundBytes() : 0;
    mapBytes_ = capacity_ * roundBytes();
    if (mapBytes_ > 0) {
        // Reserve address space only: pages commit as rounds fill.
        void *map = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                         0);
        if (map == MAP_FAILED) {
            capacity_ = 0;
            mapBytes_ = 0;
        } else {
            base_ = static_cast<unsigned char *>(map);
        }
    }
    state_ = std::make_unique<std::atomic<std::uint8_t>[]>(capacity_);
}

WeightCache::~WeightCache()
{
    if (base_)
        munmap(base_, mapBytes_);
    g_totalResident.fetch_sub(resident_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

bool
WeightCache::restore(std::uint64_t round, std::int32_t *arena) const
{
    if (round >= capacity_ ||
        state_[round].load(std::memory_order_acquire) != kReady)
        return false;
    widen(base_ + round * roundBytes(), weights_, width_, arena);
    return true;
}

void
WeightCache::offer(std::uint64_t round, const std::int32_t *arena)
{
    if (round >= capacity_)
        return;
    std::uint8_t expected = kEmpty;
    if (!state_[round].compare_exchange_strong(
            expected, kFilling, std::memory_order_relaxed))
        return;
    narrow(arena, weights_, width_, base_ + round * roundBytes());
    state_[round].store(kReady, std::memory_order_release);
    resident_.fetch_add(roundBytes(), std::memory_order_relaxed);
    g_totalResident.fetch_add(roundBytes(), std::memory_order_relaxed);
}

} // namespace vibnn::accel
