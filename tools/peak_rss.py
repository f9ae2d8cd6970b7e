#!/usr/bin/env python3
"""A/B check of two command lines' peak resident memory and wall time.

Runs command A and command B in alternating pairs (A B, B A, A B, ...,
so neither side always runs on a warmer or cooler host moment) and
prints, per side, the median and quartiles of the wall time and of the
peak RSS, plus the number of pairs in which each side read lower. Each
run is started the way e2ebench's `e2e_client --wait` starts one:
fork, exec, then wait4, whose ru_maxrss is the child's resident
high-water mark. A child's ru_maxrss starts from its launcher's
high-water mark at the fork; this launcher stays near 10 MiB, so a
program that peaks above that reads its own peak.

Usage:

    tools/peak_rss.py [--pairs N] [--quiet] 'A command' 'B command'

Each command is one shell-quoted string (split with shlex, run without
a shell). --quiet sends the programs' stdout and stderr to /dev/null. A
run that exits non-zero stops the check with exit code 1. Example, a
parent build against this one on the DBP1M tier:

    tools/peak_rss.py --pairs 10 --quiet \\
        'old/largeea_cli run --source d/source.tsv ... --threads 2' \\
        'build/examples/largeea_cli run --source d/source.tsv ... --threads 2'
"""

import argparse
import os
import shlex
import statistics
import sys
import time


def run_once(argv, quiet):
    """Runs argv to completion; returns (wall seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            if quiet:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    while True:
        try:
            _, status, usage = os.wait4(pid, 0)
            break
        except InterruptedError:
            continue
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"peak_rss: exit code {code}: {shlex.join(argv)}")
    return wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating A/B pairs to run (default 10)")
    parser.add_argument("--quiet", action="store_true",
                        help="discard the programs' stdout and stderr")
    parser.add_argument("a", help="command A, one shell-quoted string")
    parser.add_argument("b", help="command B, one shell-quoted string")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"A": shlex.split(args.a), "B": shlex.split(args.b)}
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            runs[side].append(run_once(sides[side], args.quiet))
        a_wall, a_rss = runs["A"][-1]
        b_wall, b_rss = runs["B"][-1]
        print(f"pair {i + 1:2d}: A {a_wall:7.3f} s {a_rss:7.1f} MiB   "
              f"B {b_wall:7.3f} s {b_rss:7.1f} MiB", file=sys.stderr,
              flush=True)

    print(f"{args.pairs} alternating pairs; median [quartiles]")
    for metric, col in (("wall_s", 0), ("peak_rss_mib", 1)):
        for side in ("A", "B"):
            q1, q2, q3 = quartiles([r[col] for r in runs[side]])
            lower = sum(1 for a, b in zip(runs[side], runs["B" if side == "A" else "A"])
                        if a[col] < b[col])
            print(f"{metric:>13} {side}: {q2:9.3f} [{q1:9.3f}, {q3:9.3f}]"
                  f"  lower in {lower}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
