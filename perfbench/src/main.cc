/**
 * @file
 * perfbench — runs one benchmark workload and prints its result as one
 * JSON line on stdout:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out spans.jsonl]
 *
 * The line carries correct / attempted / failed, the metrics by name
 * with units (end-to-end metrics untraced, per-layer metrics traced),
 * and an info block describing the run. Exit status 0 when the outputs
 * checked correct, 1 on a correctness failure, 2 on bad arguments or a
 * set-up failure (no result line then).
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\nworkloads:");
    for (const auto &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

void
printString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            std::putchar(c);
    }
    std::putchar('"');
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunArgs args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage();
            return 2;
        }
        if (end && *end != '\0') {
            usage();
            return 2;
        }
    }
    if (!have_workload || !(args.seconds > 0.0)) {
        usage();
        return 2;
    }

    perfbench::RunResult result;
    try {
        result = perfbench::runWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto &m = result.metrics[i];
        std::printf(i ? ", " : "");
        printString(m.name);
        std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
        printString(m.unit);
        std::printf("}");
    }
    std::printf("}, \"info\": {");
    for (std::size_t i = 0; i < result.info.size(); ++i) {
        std::printf(i ? ", " : "");
        printString(result.info[i].first);
        std::printf(": ");
        printString(result.info[i].second);
    }
    std::printf("}}\n");
    return result.correct ? 0 : 1;
}
