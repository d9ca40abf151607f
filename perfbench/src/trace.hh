/**
 * @file
 * In-memory span recorder and small sample statistics for the
 * benchmark program.
 *
 * Spans are recorded only by the benchmark's own code, around calls
 * into the library's public functions: each has a name, start and end
 * (steady-clock nanoseconds), a parent span id and a request id. They
 * stay in memory and are written out as JSON lines when the run ends.
 * A disabled tracer records nothing and costs one branch per call.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds (the one time base of every span). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** Static string: the layer boundary the span covers. */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    /** Request the span belongs to (0 outside served requests). */
    std::uint64_t request = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record one span; returns its id (0 when tracing is off). */
    std::uint64_t record(const char *name, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint64_t parent = 0,
                         std::uint64_t request = 0);

    /** Reserve a span id now for a span recorded later with
     *  recordAs() — a parent whose end is known only after its
     *  children ran. 0 when tracing is off. */
    std::uint64_t reserve();

    /** Record a span under an id from reserve(). */
    void recordAs(std::uint64_t id, const char *name, std::int64_t start_ns,
                  std::int64_t end_ns, std::uint64_t parent = 0,
                  std::uint64_t request = 0);

    /** Time `body` as a span named `name`; returns its duration in
     *  microseconds whether or not tracing is on. */
    template <typename Body>
    double
    time(const char *name, const Body &body, std::uint64_t parent = 0,
         std::uint64_t request = 0)
    {
        const std::int64_t start = nowNs();
        body();
        const std::int64_t end = nowNs();
        record(name, start, end, parent, request);
        return static_cast<double>(end - start) * 1e-3;
    }

    /** Durations in microseconds of every span named `name`. */
    std::vector<double> durationsUs(const char *name) const;

    std::size_t size() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

/** q-quantile (q in [0, 1]) by linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
