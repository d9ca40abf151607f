#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its result.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run builds the library and the benchmark program from source into
.bench_build/ (incrementally after the first time), runs the workload,
checks that its metrics are exactly the ones BENCHMARK.json declares,
writes a self-describing record to .bench_build/results/, and prints
the result as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when the outputs checked correct. --selftest
runs the load generator's coordinated-omission self-test. --compare
reports per-metric medians of two directories of records against the
bounds in BENCHMARK.json; pairs recorded on different hosts are
flagged, not gated. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
TRACES_DIR = ROOT / ".bench_build" / "traces"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally. Output goes to a log."""
    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "accel" / "program.hh").is_file()):
        fail("library sources (CMakeLists.txt, src/) not found next to "
             "perfbench/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")


def source_digest():
    """Commit id when the tree is a git checkout, else a content hash of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this tree's own repository counts, not an enclosing one.
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) \
        + sorted(BENCH_DIR.rglob("*"))
    for path in paths:
        if path.is_file() and path.suffix in (".cc", ".hh", ".txt", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint():
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "os_kernel": platform.release(),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m for m in spec[key]}


def run(args):
    spec, declared = declared_metrics(args.trace)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        TRACES_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACES_DIR / f"{tag}.jsonl")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}")
    for name, m in metrics.items():
        if m["unit"] != declared[name]["unit"]:
            fail(f"metric {name} has unit {m['unit']}, declared "
                 f"{declared[name]['unit']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": source_digest(),
        "build_type": BUILD_TYPE,
        **host_fingerprint(),
        "kernel_tier": result["info"].get("kernel_tier", "unknown"),
        "wall_s": round(time.time() - started, 3),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "info": result["info"],
    }
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k != "metrics"}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if result["correct"] else 1


def selftest():
    build()
    return subprocess.run([str(BUILD_DIR / "loadgen_selftest")],
                          timeout=RUN_TIMEOUT_S).returncode


def load_records(directory):
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            records.setdefault(rec["workload"], []).append(rec)
    return records


def compare(base_dir, new_dir):
    """Median of each end-to-end metric per workload, base vs new.
    Exit 1 on a regression beyond its bound, unless the two sides come
    from different hosts: those pairs are flagged and not gated."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_records(base_dir), load_records(new_dir)
    fingerprint = lambda r: (r["host"], r["nproc"], r["cpu_model"],
                             r["kernel_tier"], r["build_type"])
    regressed = False
    for workload in sorted(set(base) & set(new)):
        hosts = {fingerprint(r) for r in base[workload] + new[workload]}
        cross = len(hosts) > 1
        print(f"{workload}: {len(base[workload])} base vs "
              f"{len(new[workload])} new runs"
              + ("  [CROSS-HOST: reported, not gated]" if cross else ""))
        for m in spec["end_to_end"]:
            name = m["name"]
            if any(name not in r["metrics"]
                   for r in base[workload] + new[workload]):
                print(f"  {name:14s} not in every record; skipped")
                continue
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in base[workload])
            n = statistics.median(r["metrics"][name]["value"]
                                  for r in new[workload])
            change = (n - b) / b if b else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "FLAG" if cross else "REGRESSED"
                regressed = regressed or not cross
            print(f"  {name:14s} {b:14.6g} -> {n:14.6g} {m['unit']:10s} "
                  f"{change:+8.2%}  bound {m['bound']:.0%}  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
