#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench
{

std::uint64_t
Tracer::record(const char *name, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t parent,
               std::uint64_t request)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = nextId_++;
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
    return id;
}

std::uint64_t
Tracer::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::recordAs(std::uint64_t id, const char *name, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint64_t parent,
                 std::uint64_t request)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
}

std::vector<double>
Tracer::durationsUs(const char *name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs) *
                          1e-3);
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                     s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

} // namespace perfbench
