/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the workload
 * seed, measures for the requested time, checks the program's outputs,
 * and returns its metrics by name with units.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines); empty
     *  keeps them in memory only. */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Context the record carries (shapes, counts, checks). */
    std::vector<std::pair<std::string, std::string>> info;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void
    note(std::string key, std::string value)
    {
        info.emplace_back(std::move(key), std::move(value));
    }
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; fatal configuration problems throw
 *  std::runtime_error. */
RunResult runWorkload(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
