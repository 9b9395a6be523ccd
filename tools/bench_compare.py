#!/usr/bin/env python3
"""Compare perf_report outputs (BENCH_nc.json / BENCH_sim.json).

Two modes, both consuming the stable "pap-bench-v1" schema that
bench/perf_report emits:

regress  -- compare a fresh run against a committed baseline file and flag
            every benchmark whose real time regressed by more than the
            threshold (default 25%). Absolute nanoseconds are only
            meaningful on comparable machines, so CI runs this warn-only on
            shared runners and developers run it hard-fail locally:

              tools/bench_compare.py regress \
                  --baseline BENCH_nc.json --current build/BENCH_nc.json

speedup  -- machine-independent gate: within ONE run, require the optimized
            kernel to beat its retained naive reference by a floor factor.
            The ratio cancels out the machine, so this hard-fails anywhere:

              tools/bench_compare.py speedup --current build/BENCH_nc.json \
                  --pair BM_NcDeconvolve:BM_NcDeconvolveReference:5 \
                  --pair 'BM_WcdServiceCurve/128:BM_WcdServiceCurveReference/128:5'

regress prints the "build_type" both files record and exits 2 when they
differ (a Debug run is no measure of a Release baseline); a file without
the field counts as unknown, which only warns.

Exit status: 0 = all checks passed (or --warn-only), 1 = failures, 2 = bad
input (missing file, malformed JSON, unknown benchmark name, different
build types).
"""

import argparse
import json
import os
import sys

SCHEMA = "pap-bench-v1"


def write_summary(args, title, header, rows):
    """Append a markdown table to the CI job summary.

    The target file is --summary when given, else $GITHUB_STEP_SUMMARY (set
    by GitHub Actions for every step); when neither exists this is a no-op,
    so local runs stay plain-console.
    """
    path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"### {title}\n\n")
            f.write("| " + " | ".join(header) + " |\n")
            f.write("|" + "|".join("---" for _ in header) + "|\n")
            for row in rows:
                f.write("| " + " | ".join(str(c) for c in row) + " |\n")
            f.write("\n")
    except OSError as e:
        print(f"bench_compare: cannot write summary {path}: {e}", file=sys.stderr)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(
            f"bench_compare: {path} has schema {doc.get('schema')!r}, "
            f"expected {SCHEMA!r}",
            file=sys.stderr,
        )
        sys.exit(2)
    out = {}
    for b in doc.get("benchmarks", []):
        out[b["name"]] = float(b["real_ns"])
    return out, doc.get("build_type")


def cmd_regress(args):
    baseline, base_type = load(args.baseline)
    current, cur_type = load(args.current)
    print(
        f"  build type: baseline {base_type or 'unknown'}, "
        f"current {cur_type or 'unknown'}"
    )
    if base_type is None or cur_type is None:
        print(
            "bench_compare: warning: build type unknown, cannot check that "
            "the two runs are comparable",
            file=sys.stderr,
        )
    elif base_type != cur_type:
        print(
            f"bench_compare: build types differ ({base_type} baseline, "
            f"{cur_type} current); the times are not comparable",
            file=sys.stderr,
        )
        return 2
    failures = []
    rows = []
    for name, base_ns in sorted(baseline.items()):
        cur_ns = current.get(name)
        if cur_ns is None:
            print(f"  MISSING  {name} (in baseline, not in current run)")
            failures.append(name)
            rows.append((f"`{name}`", f"{base_ns:.1f}", "—", "—", "missing"))
            continue
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        marker = " "
        if ratio > 1.0 + args.threshold:
            marker = "!"
            failures.append(name)
        print(
            f"  {marker} {name:45s} {base_ns:12.1f} -> {cur_ns:12.1f} ns "
            f"({ratio:5.2f}x)"
        )
        speedup = base_ns / cur_ns if cur_ns > 0 else float("inf")
        rows.append(
            (
                f"`{name}`",
                f"{base_ns:.1f}",
                f"{cur_ns:.1f}",
                f"{speedup:.2f}x",
                ":x: regressed" if marker == "!" else ":white_check_mark:",
            )
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"  NEW      {name} (not in baseline; add it on the next refresh)")
        rows.append((f"`{name}`", "—", f"{current[name]:.1f}", "—", "new"))
    write_summary(
        args,
        f"Perf vs baseline ({args.baseline})",
        ("op", "old (ns)", "new (ns)", "speedup", "status"),
        rows,
    )
    if failures:
        pct = int(args.threshold * 100)
        print(
            f"bench_compare: {len(failures)} benchmark(s) regressed "
            f"more than {pct}% vs {args.baseline}"
        )
        if args.warn_only:
            print("bench_compare: --warn-only set, not failing the build")
            return 0
        return 1
    print(f"bench_compare: no regressions beyond {int(args.threshold * 100)}%")
    return 0


def parse_pair(spec, default_floor):
    parts = spec.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], default_floor
    if len(parts) == 3:
        return parts[0], parts[1], float(parts[2])
    print(
        f"bench_compare: bad --pair {spec!r}, want FAST:SLOW or FAST:SLOW:FLOOR",
        file=sys.stderr,
    )
    sys.exit(2)


def cmd_speedup(args):
    current = {}
    for path in args.current:
        current.update(load(path)[0])
    failures = []
    rows = []
    for spec in args.pair:
        fast, slow, floor = parse_pair(spec, args.floor)
        missing = [n for n in (fast, slow) if n not in current]
        if missing:
            print(
                f"bench_compare: benchmark(s) {missing} not found in "
                f"{', '.join(args.current)}",
                file=sys.stderr,
            )
            sys.exit(2)
        ratio = current[slow] / current[fast] if current[fast] > 0 else float("inf")
        ok = ratio >= floor
        print(
            f"  {' ' if ok else '!'} {fast:40s} {ratio:7.1f}x over {slow} "
            f"(floor {floor:g}x)"
        )
        rows.append(
            (
                f"`{fast}`",
                f"`{slow}`",
                f"{current[fast]:.1f}",
                f"{current[slow]:.1f}",
                f"{ratio:.2f}x",
                f"{floor:g}x",
                ":white_check_mark:" if ok else ":x: below floor",
            )
        )
        if not ok:
            failures.append(fast)
    write_summary(
        args,
        "Speedup floors",
        ("optimized", "reference", "opt (ns)", "ref (ns)", "speedup", "floor", "status"),
        rows,
    )
    if failures:
        print(f"bench_compare: {len(failures)} speedup floor(s) not met")
        return 1
    print("bench_compare: all speedup floors met")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="mode", required=True)

    pr = sub.add_parser("regress", help="compare a run against a baseline file")
    pr.add_argument("--baseline", required=True)
    pr.add_argument("--current", required=True)
    pr.add_argument("--threshold", type=float, default=0.25)
    pr.add_argument("--warn-only", action="store_true")
    pr.add_argument(
        "--summary",
        help="markdown table target (default: $GITHUB_STEP_SUMMARY if set)",
    )
    pr.set_defaults(func=cmd_regress)

    ps = sub.add_parser("speedup", help="enforce optimized-vs-reference floors")
    ps.add_argument("--current", nargs="+", required=True)
    ps.add_argument(
        "--pair",
        action="append",
        required=True,
        metavar="FAST:SLOW[:FLOOR]",
    )
    ps.add_argument("--floor", type=float, default=5.0)
    ps.add_argument(
        "--summary",
        help="markdown table target (default: $GITHUB_STEP_SUMMARY if set)",
    )
    ps.set_defaults(func=cmd_speedup)

    args = p.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
