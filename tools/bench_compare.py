#!/usr/bin/env python3
"""Gate bench throughput against a checked-in baseline.

Both inputs are VIBNN_BENCH_JSON files (a JSON array of flat records,
see bench/bench_util.hh). Records are matched on their identity fields
(bench/section/backend/schedule/style/kernel/...) and every matched
pair with a value for the gated metric (`images_per_s` by default;
--metric selects another, e.g. `rlf_eps_mps` for the GRNG eps-supply
records) is compared: the run fails when a fresh value regresses more
than --tolerance (default 10%) past its baseline. The gate is
one-sided and directional: with --direction higher (the default,
throughput metrics) regression means falling below the baseline
floor; with --direction lower (latency metrics, e.g. the serving
bench's p99_us) regression means rising above the baseline ceiling —
better-than-baseline is always fine either way.
Note that the kernel tier is part of the identity, so a scalar-forced
run never gets judged against an avx2 baseline — it is simply reported
as unmatched.

Typical use (the CI kernel-matrix job, gating just the batched-path
rows the PR 5 acceptance tracks):

    VIBNN_BENCH_JSON=fresh.json ./build/bench_table5_throughput
    python3 tools/bench_compare.py BENCH_PR5.json fresh.json \
        --only backend=batched --only style=submit-coalesced

--section restricts by section; --only key=value (repeatable) keeps
records matching ANY given pair; a baseline record with no fresh
counterpart is an error under --require-all (a silently skipped
benchmark would otherwise look like a pass).

Records carry a host fingerprint (host name, CPU count, CPU model,
kernel tier, build type; see JsonReport in bench/bench_util.hh) outside
their identity. A compared pair whose fingerprints differ, or that
lacks one, is printed with a CROSS-HOST mark: its gap may be the
hosts', not the code's. The mark is informational; it does not change
what passes or fails.
"""

import argparse
import json
import sys

IDENTITY_KEYS = ("bench", "section", "backend", "schedule", "style",
                 "kernel", "tier", "generator", "estimator", "bits", "T",
                 "batch", "requests", "confidence", "budget", "shards",
                 "offered", "conns", "rate", "profile", "shape")
DEFAULT_METRIC = "images_per_s"
FINGERPRINT_KEYS = ("host", "host_nproc", "host_cpu", "host_tier",
                    "host_build")


def load(path):
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return records


def identity(record):
    return tuple((key, record[key]) for key in IDENTITY_KEYS
                 if key in record)


def fingerprint(record):
    """The record's host fingerprint, or None when it has none."""
    if not all(key in record for key in FINGERPRINT_KEYS):
        return None
    return tuple(record[key] for key in FINGERPRINT_KEYS)


def cross_host(base, fresh):
    """True unless both records carry the same host fingerprint."""
    base_fp = fingerprint(base)
    return base_fp is None or base_fp != fingerprint(fresh)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("fresh", help="freshly measured JSON")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--section", nargs="*", default=None,
                        help="only compare records in these sections")
    parser.add_argument("--only", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="keep records matching any given key=value "
                             "pair (repeatable)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail if a comparable baseline record has "
                             "no fresh counterpart")
    parser.add_argument("--allow-unmatched", action="store_true",
                        help="exit 0 when nothing matched at all "
                             "(e.g. the fresh run used a different "
                             "kernel tier than the baseline)")
    parser.add_argument("--metric", default=DEFAULT_METRIC,
                        help="record field to gate on (default "
                             f"{DEFAULT_METRIC}); records lacking the "
                             "field are ignored")
    parser.add_argument("--direction", choices=("higher", "lower"),
                        default="higher",
                        help="gating direction: 'higher' (throughput "
                             "metrics, the default) fails when fresh "
                             "drops below baseline*(1-tol); 'lower' "
                             "(latency metrics like p99_us) fails when "
                             "fresh rises above baseline*(1+tol)")
    parser.add_argument("--unit", default=None,
                        help="unit label for the report lines "
                             "(default derives from --metric)")
    args = parser.parse_args()
    metric = args.metric
    unit = args.unit if args.unit is not None else (
        "img/s" if metric == DEFAULT_METRIC else metric)

    only = None
    if args.only:
        only = []
        for pair in args.only:
            key, sep, value = pair.partition("=")
            if not sep:
                raise SystemExit(f"--only expects key=value, got {pair!r}")
            only.append((key, value))

    baseline = {identity(r): r for r in load(args.baseline)
                if metric in r}
    fresh = {identity(r): r for r in load(args.fresh) if metric in r}

    compared = 0
    crossed = 0
    failures = []
    missing = []
    for key, base in sorted(baseline.items()):
        if args.section is not None and base.get("section") not in \
                args.section:
            continue
        if only is not None and not any(
                str(base.get(k)) == v for k, v in only):
            continue
        other = fresh.get(key)
        label = " ".join(f"{k}={v}" for k, v in key)
        if other is None:
            missing.append(label)
            continue
        compared += 1
        base_v = float(base[metric])
        fresh_v = float(other[metric])
        if args.direction == "higher":
            floor = base_v * (1.0 - args.tolerance)
            regressed = fresh_v < floor
            bound_note = f"floor {floor:.1f}"
        else:
            # Lower-is-better (latency): regression means RISING past
            # the baseline plus headroom.
            ceiling = base_v * (1.0 + args.tolerance)
            regressed = fresh_v > ceiling
            bound_note = f"ceiling {ceiling:.1f}"
        verdict = "REGRESSION" if regressed else "ok"
        host_note = ""
        if cross_host(base, other):
            crossed += 1
            host_note = " CROSS-HOST"
        print(f"{verdict:10s} {label}: baseline {base_v:.1f} -> "
              f"fresh {fresh_v:.1f} {unit} ({bound_note}){host_note}")
        if regressed:
            failures.append(label)

    if missing:
        print(f"\n{len(missing)} baseline record(s) had no fresh "
              "counterpart:")
        for label in missing:
            print(f"  missing: {label}")
        if args.require_all:
            return 1

    if crossed:
        print(f"\n{crossed} of {compared} compared pair(s) are CROSS-HOST "
              "(fingerprints differ or are missing)")

    if compared == 0:
        if args.allow_unmatched:
            print("warning: no comparable records (different kernel "
                  "tier / host?) — skipping the gate")
            return 0
        print("error: no comparable records (identity fields or "
              f"'{metric}' missing?)")
        return 1
    if failures:
        print(f"\nFAIL: {len(failures)} of {compared} compared records "
              f"regressed more than {args.tolerance:.0%}")
        return 1
    print(f"\nOK: {compared} records within {args.tolerance:.0%} of "
          "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
