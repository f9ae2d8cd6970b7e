#!/usr/bin/env python3
"""Perf-regression gate over the committed benchmark baselines.

Compares a freshly generated bench JSON (bench/bench_util.h BenchJson
format: {"bench", "schema_version", "rows": [...]}) against the
committed baseline of the same bench and fails loudly when any row's
throughput dropped beyond tolerance. Rows are matched by bench-specific
key columns, so a re-ordered or extended sweep still gates correctly:

    par     -> (kernel, threads)      on items_per_sec
    simd    -> (kernel, backend)      on items_per_sec
    profile -> (kernel, threads)      on items_per_sec
                                      + utilization / imbalance_ratio
    stream  -> (path, budget_mb)      schema-checked only (per SENS
                                      path, the unbudgeted run and each
                                      distinct budget: peak, seconds,
                                      tile reloads, bit-identity)
    dag     -> (row,)                 schema-checked only (DAG wall
                                      clock at concurrency 1 vs the
                                      pool's, node timings)
    serve   -> (targets, path)        on items_per_sec (QPS)
                                      + recall_at_k on name_ann rows

Profile rows carry the profiler's quality columns besides throughput;
those are gated too: a kernel whose worker imbalance grows past the
baseline (beyond tolerance plus a small absolute slack) or whose pool
utilization drops fails the gate even if wall-clock throughput held up
— that is exactly the early-warning signal the profiler exists for.

Usage:
    bench_gate.py --baseline BENCH_par.json --fresh /tmp/par.json
    bench_gate.py --baseline BENCH_par.json --fresh ... --tolerance 0.2
    bench_gate.py --check BENCH_par.json BENCH_simd.json
    bench_gate.py --merge-best BENCH_par.json run1.json run2.json ...

--check validates schema and sanity of committed files without running
anything (used by CI, where the runner's absolute speed is meaningless
but a corrupted or hand-edited baseline should still fail the build).

--merge-best writes, for each row key, the row with the highest
items_per_sec across the input files. System noise only ever makes a
benchmark *slower*, so best-of-N on both sides of the comparison is
what makes a 15% gate hold on a machine with 20% run-to-run jitter —
run_bench.sh measures every gated bench this way.

Exit codes: 0 = pass, 1 = regression / invalid file, 2 = usage error.
"""

import argparse
import json
import sys

# Key columns per bench name; anything else numeric is a metric.
KEY_COLUMNS = {
    "par": ("kernel", "threads"),
    "simd": ("kernel", "backend"),
    "profile": ("kernel", "threads"),
    "stream": ("path", "budget_mb"),
    "dag": ("row",),
    "serve": ("targets", "path"),
}

# The gated metric per bench (higher is better).
GATE_METRIC = "items_per_sec"

# Quality columns gated per bench besides throughput. Each entry is
# (column, direction, absolute_slack): "lower" means fresh must stay
# under baseline * (1 + tolerance) + slack, "higher" means fresh must
# stay above baseline * (1 - tolerance) - slack. The absolute slack
# absorbs scheduler noise on ratios whose baseline sits near their floor
# (an imbalance of 1.02 vs a 1.0 baseline is not a regression).
QUALITY_METRICS = {
    "profile": (
        ("imbalance_ratio", "lower", 0.25),
        ("utilization", "higher", 0.05),
    ),
    # ANN shortlist recall is part of the serving contract: a change
    # that wins QPS by silently dropping recall must fail the gate.
    "serve": (
        ("recall_at_k", "higher", 0.02),
    ),
}

DEFAULT_TOLERANCE = 0.15


def fail(message):
    print(f"bench_gate: FAIL: {message}", file=sys.stderr)
    return 1


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for field in ("bench", "schema_version", "rows"):
        if field not in doc:
            raise ValueError(f"{path}: missing top-level field '{field}'")
    if doc["schema_version"] != 1:
        raise ValueError(
            f"{path}: unsupported schema_version {doc['schema_version']}")
    if not isinstance(doc["rows"], list) or not doc["rows"]:
        raise ValueError(f"{path}: empty or malformed rows")
    return doc


def row_key(bench, row, path):
    columns = KEY_COLUMNS.get(bench)
    if columns is None:
        raise ValueError(f"{path}: unknown bench name '{bench}'")
    try:
        return tuple(row[c] for c in columns)
    except KeyError as e:
        raise ValueError(f"{path}: row missing key column {e}") from e


def check_file(path):
    """Schema/sanity validation of one committed baseline."""
    doc = load(path)
    bench = doc["bench"]
    seen = set()
    for row in doc["rows"]:
        key = row_key(bench, row, path)
        if key in seen:
            raise ValueError(f"{path}: duplicate row key {key}")
        seen.add(key)
        if GATE_METRIC in row and not row[GATE_METRIC] > 0:
            raise ValueError(
                f"{path}: row {key} has non-positive {GATE_METRIC}")
        for column, _, _ in QUALITY_METRICS.get(bench, ()):
            if column in row and not row[column] > 0:
                raise ValueError(
                    f"{path}: row {key} has non-positive {column}")
    print(f"bench_gate: {path}: ok ({bench}, {len(seen)} rows)")


def merge_best(out_path, in_paths):
    """Writes per-row-key best-of-N of the gate metric across in_paths."""
    docs = [load(p) for p in in_paths]
    bench = docs[0]["bench"]
    best = {}
    order = []
    for doc, path in zip(docs, in_paths):
        if doc["bench"] != bench:
            raise ValueError(f"{path}: bench '{doc['bench']}' does not "
                             f"match '{bench}' from {in_paths[0]}")
        for row in doc["rows"]:
            key = row_key(bench, row, path)
            if key not in best:
                best[key] = row
                order.append(key)
            elif (row.get(GATE_METRIC, 0.0) >
                  best[key].get(GATE_METRIC, 0.0)):
                best[key] = row
    out = {"bench": bench, "schema_version": 1,
           "rows": [best[k] for k in order]}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"bench_gate: {out_path}: best of {len(in_paths)} runs "
          f"({bench}, {len(order)} rows)")
    return 0


def compare(baseline_path, fresh_path, tolerance):
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if baseline["bench"] != fresh["bench"]:
        return fail(f"bench mismatch: baseline is '{baseline['bench']}', "
                    f"fresh is '{fresh['bench']}'")
    bench = baseline["bench"]

    base_rows = {row_key(bench, r, baseline_path): r
                 for r in baseline["rows"]}
    fresh_rows = {row_key(bench, r, fresh_path): r for r in fresh["rows"]}

    regressions = []
    compared = 0
    for key, base in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
        if GATE_METRIC not in base:
            continue
        if key not in fresh_rows:
            regressions.append((key, "row missing from fresh run"))
            continue
        base_v = base[GATE_METRIC]
        fresh_v = fresh_rows[key].get(GATE_METRIC, 0.0)
        compared += 1
        ratio = fresh_v / base_v if base_v > 0 else 0.0
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            regressions.append(
                (key, f"{GATE_METRIC} {fresh_v:.3g} vs baseline "
                      f"{base_v:.3g} ({ratio:.2f}x, tolerance "
                      f"{1.0 - tolerance:.2f}x)"))
        elif ratio > 1.0 + tolerance:
            status = "improved"
        print(f"bench_gate: {bench} {key}: {ratio:.2f}x {status}")

    for key, base in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
        if key not in fresh_rows:
            continue  # already reported by the throughput loop
        for column, direction, slack in QUALITY_METRICS.get(bench, ()):
            if column not in base:
                continue
            base_v = base[column]
            fresh_v = fresh_rows[key].get(column)
            if fresh_v is None:
                regressions.append((key, f"{column} missing from fresh run"))
                continue
            compared += 1
            if direction == "lower":
                allowed = base_v * (1.0 + tolerance) + slack
                bad = fresh_v > allowed
                bound = f"<= {allowed:.3g}"
            else:
                allowed = base_v * (1.0 - tolerance) - slack
                bad = fresh_v < allowed
                bound = f">= {allowed:.3g}"
            status = "ok"
            if bad:
                status = "REGRESSION"
                regressions.append(
                    (key, f"{column} {fresh_v:.3g} vs baseline "
                          f"{base_v:.3g} (needed {bound})"))
            print(f"bench_gate: {bench} {key}: {column} "
                  f"{fresh_v:.3g} (baseline {base_v:.3g}) {status}")

    if compared == 0:
        return fail(f"no comparable rows between {baseline_path} "
                    f"and {fresh_path}")
    if regressions:
        for key, why in regressions:
            print(f"bench_gate: {bench} {key}: {why}", file=sys.stderr)
        return fail(f"{len(regressions)} of {compared} rows regressed "
                    f"beyond {tolerance:.0%} on {GATE_METRIC}")
    print(f"bench_gate: PASS: {compared} rows within {tolerance:.0%} "
          f"of {baseline_path}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--fresh", help="freshly generated JSON to gate")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative throughput drop "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate committed baselines only")
    parser.add_argument("--merge-best", metavar="OUT",
                        help="write per-row best-of-N of the inputs")
    parser.add_argument("inputs", nargs="*", metavar="FILE",
                        help="input runs for --merge-best")
    args = parser.parse_args(argv)

    if args.merge_best:
        if args.baseline or args.fresh or args.check:
            parser.error("--merge-best is exclusive with other modes")
        if not args.inputs:
            parser.error("--merge-best needs at least one input file")
        try:
            return merge_best(args.merge_best, args.inputs)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            return fail(str(e))
    if args.inputs:
        parser.error("positional files are only valid with --merge-best")

    if args.check:
        if args.baseline or args.fresh:
            parser.error("--check is exclusive with --baseline/--fresh")
        status = 0
        for path in args.check:
            try:
                check_file(path)
            except (OSError, ValueError, json.JSONDecodeError) as e:
                status = fail(str(e))
        return status

    if not args.baseline or not args.fresh:
        parser.error("need --baseline and --fresh (or --check)")
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")
    try:
        return compare(args.baseline, args.fresh, args.tolerance)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return fail(str(e))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
