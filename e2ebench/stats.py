"""Statistics the end-to-end benchmark reports with.

Pure functions, no I/O, so test_stats.py can pin their behaviour:

* tail_percentile: the percentile rule. A tail percentile is reported only
  where at least MIN_BEYOND samples lie beyond it; with fewer samples the
  highest percentile that still has them is reported instead, and the
  percentile actually used and the sample count are returned with it.
* windowed_percentile: the median over consecutive time windows of each
  window's percentile, so one rare stall moves one window, not the result.
* capacity_search: the highest offered rate a probe accepts, found by
  doubling (or halving) from a start rate and then bisecting
  geometrically.
* backlog_grows / outstanding: whether a server kept up with an offered
  schedule (open-loop, so unanswered requests pile up when it does not).
* self_times / layer_self_times: a span's self time is its duration minus
  the durations of its direct children.
"""

import bisect
import math
import statistics

MIN_BEYOND = 10


def tail_percentile(values, want=99.0, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile `want` of `values`, capped by the rule.

    Returns (value, percentile_used, count). The rank of percentile p among
    n sorted samples is ceil(p/100 * n); the samples beyond it number
    n - rank. The percentile used is the highest p <= want with at least
    `min_beyond` samples beyond it. The median (p50) needs no tail, so it is
    always `want` itself. Raises ValueError when even that fails.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    used = float(want)
    if want > 50.0:
        cap = 100.0 * (n - min_beyond) / n
        used = min(used, cap)
        if used < 50.0:
            raise ValueError(
                f"{n} samples cannot support a tail percentile "
                f"with {min_beyond} beyond it")
    rank = max(1, math.ceil(used / 100.0 * n - 1e-9))
    return ordered[rank - 1], used, n


def median(values):
    return tail_percentile(values, 50.0)[0]


def windowed_percentile(times, values, windows, want=99.0):
    """Median over `windows` equal spans of `times` of each span's
    percentile `want` of `values` (paired with `times`).

    Returns (value, lowest percentile used, smallest window count).
    """
    lo, hi = min(times), max(times)
    width = (hi - lo) / windows or 1.0
    buckets = [[] for _ in range(windows)]
    for t, v in zip(times, values):
        buckets[min(windows - 1, int((t - lo) / width))].append(v)
    results = [tail_percentile(b, want) for b in buckets]
    return (statistics.median(r[0] for r in results),
            min(r[1] for r in results), min(r[2] for r in results))


def capacity_search(probe, start, rel_tol=0.05, max_probes=10, growth=2.0,
                    floor=None):
    """Highest rate `probe(rate) -> bool` accepts, to within `rel_tol`.

    From `start`, multiplies by `growth` while the probe passes, or divides
    by it while the probe fails (down to `floor`), then bisects
    geometrically between the highest pass and the lowest failure. Returns
    (capacity, history) where history is [(rate, passed), ...] in probe
    order. capacity is None when no rate tried passes; when the probe
    budget runs out first, the best passing rate so far is returned.
    """
    history = []

    def run(rate):
        passed = bool(probe(rate))
        history.append((rate, passed))
        return passed

    floor = start if floor is None else floor
    good, bad = None, None
    rate = start
    while len(history) < max_probes:
        if run(rate):
            good = rate
            if bad is not None:
                break
            rate *= growth
        else:
            bad = rate
            if good is not None or rate / growth < floor:
                break
            rate /= growth
    if good is None:
        return None, history
    while bad is not None and bad / good > 1.0 + rel_tol \
            and len(history) < max_probes:
        rate = math.sqrt(good * bad)
        if run(rate):
            good = rate
        else:
            bad = rate
    return good, history


def outstanding(due_us, recv_us, at_us):
    """Requests due by `at_us` but not yet answered at `at_us`.

    `due_us` and `recv_us` are per request; unanswered requests carry a
    negative recv time.
    """
    due_sorted = sorted(due_us)
    recv_sorted = sorted(r for r in recv_us if r >= 0)
    due_by = bisect.bisect_right(due_sorted, at_us)
    answered_by = bisect.bisect_right(recv_sorted, at_us)
    return max(0, due_by - answered_by)


def backlog_grows(due_us, recv_us, rate, limit_us, min_slack=16):
    """True when unanswered requests piled up over the schedule.

    Compares the backlog when the last request fell due with the backlog a
    quarter of the way in. A server that keeps the latency limit holds
    about rate * limit requests in flight (Little's law), so growth beyond
    that much, or beyond `min_slack`, means it fell behind.
    """
    if not due_us:
        return False
    if any(r < 0 for r in recv_us):
        return True
    first, last = min(due_us), max(due_us)
    early = outstanding(due_us, recv_us, first + (last - first) / 4.0)
    late = outstanding(due_us, recv_us, last)
    slack = max(min_slack, rate * limit_us / 1e6)
    return late - early > slack


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations.

    `spans` is a list of {"name", "start", "end", "parent"} with parent an
    index into the same list or -1.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_self_times(spans, root):
    """Self time summed by span name over the strict descendants of the
    first span named `root`."""
    selfs = self_times(spans)
    root_index = next(i for i, s in enumerate(spans) if s["name"] == root)

    def under_root(i):
        p = spans[i]["parent"]
        while p >= 0:
            if p == root_index:
                return True
            p = spans[p]["parent"]
        return False

    totals = {}
    for i, s in enumerate(spans):
        if under_root(i):
            totals[s["name"]] = totals.get(s["name"], 0.0) + selfs[i]
    return totals
