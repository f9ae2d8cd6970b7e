#!/usr/bin/env python3
"""End-to-end benchmark of LargeEA: align, build a serving index, serve.

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The first run builds largeea_cli and
the benchmark's two helpers (probe.cc, client.cc) into .bench_build/; every
run works in its own directory under .bench_work/ and removes it at the end.

--trace 0 drives the real binaries from outside and reports the end-to-end
metrics: set-up (input generation), `largeea_cli run` (wall time, peak RSS,
Hit@1, MRR), `largeea_cli index-build`, and open-loop `largeea_cli serve`
sessions (capacity at a p99 limit, RSS while the index swaps, ANN
quality); the short measurements repeat between the long stages.
--trace 1 makes the traced in-process run (e2e_probe trace) between two
untraced `run`s, then a serve session at a fixed reference rate with one
swap, and reports the per-layer metrics. Every program process gets
--threads 2 and is started by `e2e_client --wait`. See NOTES.md for the
workloads, the metric definitions and the layer-to-metric map.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
Diagnostics go to stderr; a host-noise record of every run is appended to
.bench_work/host-noise.jsonl.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402  (after the bytecode switch)

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
CLI = BUILD / "repo" / "examples" / "largeea_cli"
PROBE = BUILD / "e2e_probe"
CLIENT = BUILD / "e2e_client"

THREADS = ("--threads", "2")
PROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    tier: str
    pair: str
    scale: float
    seed: int  # the tier's own seed: inputs match `largeea_cli generate`
    flags: tuple  # every pipeline flag the workload sets
    # Flags of the same pipeline without the memory budget; set for the
    # streaming workload, whose predictions must equal that run's.
    unbudgeted: tuple = ()


WORKLOADS = {
    "dbp1m": Workload("dbp1m", "enfr", 1.0, 1000, ("--use-lsh=true",)),
    "ids100k-structure": Workload(
        "ids100k", "ende", 3.0, 100,
        ("--use-name-channel=false", "--use-lsh=false")),
    "ids15k-budget": Workload(
        "ids15k", "enfr", 1.0, 15,
        ("--use-lsh=true", "--memory-budget-mb", "1"),
        unbudgeted=("--use-lsh=true",)),
}

SPOT_GEN_S = 0.2  # input generation repeats this long at each of four points
REFERENCE_QPS = 2000.0
NAME_SHARE = 0.10
K = 10
NAME_POOL = 1024
# Capacity: the highest rate whose p99 stays under this. Above the few-ms
# stalls a shared host adds at any rate, so the limit finds the server's
# saturation, not the neighbours'.
P99_LIMIT_US = 20_000.0
# A probe's p99 is the median of its quarters' p99s: one stall moves one
# quarter, while a saturated server misses the limit in all of them.
PROBE_WINDOWS = 4
LATE_LIMIT_US = 1000.0  # a phase whose median sender lateness exceeds this is invalid
REFERENCE_WINDOWS = 4  # serve.ref_p99_us is the median of the windows' p99s
PROBE_MIN_REQUESTS = 1100  # p99 with at least ten samples beyond it
TRACE_REQUESTS = 12_000  # engine requests timed in the traced run (~1,200 names)


STARTED = time.perf_counter()


def log(message):
    print(f"[{time.perf_counter() - STARTED:6.1f}s] {message}", file=sys.stderr,
          flush=True)


class BenchError(Exception):
    """Measurement impossible: reported on stderr, exit code 1, no result."""


# --- processes ---------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int


def child_env(work):
    env = dict(os.environ)
    # The benchmark spells out every knob; nothing leaks in from outside.
    for key in ("LARGEEA_THREADS", "LARGEEA_SIMD", "LARGEEA_MEMORY_BUDGET_MB",
                "LARGEEA_FAULTS", "LARGEEA_FAULTS_SHARD"):
        env.pop(key, None)
    env["TMPDIR"] = str(work / "tmp")
    return env


def stop_group(proc):
    """Kills the process group `proc` leads, reaps `proc` and waits until
    none of the group is left (its orphans are reaped by init)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(argv, work, log_name):
    """Runs argv to completion through `e2e_client --wait`, which reports
    the program's own wall time (spawn to reap) and peak RSS."""
    result = work / f"{log_name}.result"
    with open(work / log_name, "wb") as out:
        # Its own process group, so a timeout or an error path stops the
        # launcher and the program together.
        proc = subprocess.Popen(
            [str(CLIENT), "--wait", str(result), "--", *[str(a) for a in argv]],
            stdout=out, stderr=subprocess.STDOUT, env=child_env(work),
            start_new_session=True)
        killer = threading.Timer(PROCESS_TIMEOUT_S, stop_group, (proc,))
        killer.start()
        try:
            proc.wait()
        except BaseException:
            stop_group(proc)
            raise
        finally:
            killer.cancel()
    if proc.returncode == 0:
        r = json.loads(result.read_text())
        code, wall, rss_mb = r["exit"], r["wall_ns"] / 1e9, r["rss_kb"] / 1024.0
    else:  # the launcher itself failed or was killed
        code, wall, rss_mb = proc.returncode, 0.0, 0.0
    stop_group(proc)  # nothing of the group may outlive the call
    if code != 0:
        tail = (work / log_name).read_text(errors="replace")[-2000:]
        log(f"e2ebench: {argv[0]} {argv[1] if len(argv) > 1 else ''} "
            f"exited {code}:\n{tail}")
    return Proc(wall, rss_mb, code)


class Counts:
    """Operations attempted and failed, and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.problems.append(what)
        return ok

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


def must(proc, counts, what):
    if not counts.op(proc.code == 0, what):
        raise BenchError(f"{what} failed (exit {proc.code})")
    return proc


# --- build -------------------------------------------------------------------

def newest_source():
    newest = 0.0
    for top in ("src", "examples", "e2ebench"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".cc", ".h", ".txt"):
                newest = max(newest, path.stat().st_mtime)
    return max(newest, (ROOT / "CMakeLists.txt").stat().st_mtime)


def build():
    sources = [ROOT / "CMakeLists.txt", ROOT / "src",
               ROOT / "examples" / "largeea_cli.cc"]
    missing = [str(p) for p in sources if not p.exists()]
    if missing:
        raise BenchError("not a source checkout, missing: " + ", ".join(missing))
    binaries = (CLI, PROBE, CLIENT)
    if all(b.exists() for b in binaries) and \
            min(b.stat().st_mtime for b in binaries) > newest_source():
        return
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DLARGEEA_FAULT_INJECTION=OFF"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                      "largeea_cli", "e2e_probe", "e2e_client"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = (BUILD / "build.log").read_text(errors="replace")[-3000:]
                raise BenchError(f"build step failed: {' '.join(step)}\n{tail}")


# --- host noise ---------------------------------------------------------------

def cpu_probe_s():
    """Seconds for a fixed pure-Python loop: the host's current speed,
    which steal time misses when neighbours share the physical cores."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x ^= i * 2654435761
    return time.perf_counter() - start


def host_sample():
    load = Path("/proc/loadavg").read_text().split()[:3]
    steal = 0
    for line in Path("/proc/stat").read_text().splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            steal = int(fields[8]) if len(fields) > 8 else 0
            break
    return {"loadavg": [float(x) for x in load], "steal_ticks": steal,
            "cpu_probe_s": cpu_probe_s()}


def host_record(before, after):
    hz = os.sysconf("SC_CLK_TCK")
    return {"loadavg_before": before["loadavg"],
            "loadavg_after": after["loadavg"],
            "steal_s": (after["steal_ticks"] - before["steal_ticks"]) / hz,
            "cpu_probe_s": [before["cpu_probe_s"], after["cpu_probe_s"]]}


# --- inputs ------------------------------------------------------------------

class Inputs:
    def __init__(self, directory):
        self.source = directory / "source.tsv"
        self.target = directory / "target.tsv"
        self.train = directory / "train.tsv"
        self.test = directory / "test.tsv"

    def flags(self):
        return ["--source", self.source, "--target", self.target,
                "--seeds", self.train, "--test", self.test]


def generate(wl, seed, work, counts, walls):
    """Generates the inputs once more and appends the wall time to `walls`;
    returns the first copy, which every later copy must equal byte for
    byte."""
    i = len(walls)
    d = work / f"in{i}"
    d.mkdir()
    proc = must(run_process(
        [PROBE, "gen", "--tier", wl.tier, "--pair", wl.pair,
         "--scale", repr(wl.scale), "--seed", str(seed), "--out_dir", d],
        work, f"gen{i}.log"), counts, "generate inputs")
    walls.append(proc.wall_s)
    first = Inputs(work / "in0")
    if i > 0:
        other = Inputs(d)
        for a, b in ((first.source, other.source), (first.target, other.target),
                     (first.train, other.train), (first.test, other.test)):
            counts.check(a.read_bytes() == b.read_bytes(),
                         f"generation is not deterministic: {b.name}")
        shutil.rmtree(d)
    return first


def generations(wl, seed, work, counts, walls):
    """Generates the inputs until SPOT_GEN_S have passed, at least once."""
    start = time.perf_counter()
    inputs = generate(wl, seed, work, counts, walls)
    while time.perf_counter() - start < SPOT_GEN_S:
        generate(wl, seed, work, counts, walls)
    return inputs


def pipeline_flags(flags, work):
    extra = ["--stream-dir", work / "spill"] if "--memory-budget-mb" in flags else []
    return [*THREADS, *flags, *extra]


def read_pairs(path):
    pairs = {}
    for line in Path(path).read_text().splitlines():
        if line:
            s, t = line.split("\t")[:2]
            pairs[s] = t
    return pairs


class Answers:
    """What the serve path must answer: the batch prediction per source id,
    once `predicted` has read it; and the test pairs' source names."""

    def __init__(self, inputs, work, counts):
        must(run_process([PROBE, "names", "--source", inputs.source,
                          "--target", inputs.target,
                          "--out", work / "source_names.txt",
                          "--target-out", work / "target_names.txt"],
                         work, "names.log"), counts, "list entity names")
        self.source = (work / "source_names.txt").read_text().split("\n")[:-1]
        targets = (work / "target_names.txt").read_text().split("\n")[:-1]
        self.target_id = {name: i for i, name in enumerate(targets)}
        self.test_sources = sorted(read_pairs(inputs.test))
        self.top1 = None

    def predicted(self, predictions):
        pred = read_pairs(predictions)
        self.top1 = [self.target_id.get(pred[n]) if n in pred else None
                     for n in self.source]


# --- batch -------------------------------------------------------------------

@dataclass
class BatchRun:
    proc: Proc
    hits_at_1: float
    mrr: float
    predictions: Path
    report: dict  # the run report (DESIGN.md §6)


def align(inputs, flags, work, counts, tag):
    pred = work / f"pred-{tag}.tsv"
    report_path = work / f"report-{tag}.json"
    proc = must(run_process(
        [CLI, "run", *inputs.flags(), *pipeline_flags(flags, work),
         "--out", pred, "--report-out", report_path],
        work, f"run-{tag}.log"), counts, f"run ({tag})")
    report = json.loads(report_path.read_text())
    return BatchRun(proc, report["eval"]["hits_at_1"], report["eval"]["mrr"],
                    pred, report)


def batch_phase(wl, inputs, work, counts, window_s):
    """`run` repeated while the window lasts (at least once)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < window_s:
        runs.append(align(inputs, wl.flags, work, counts, f"b{len(runs)}"))
    first = runs[0]
    for r in runs[1:]:
        counts.check(r.predictions.read_bytes() == first.predictions.read_bytes()
                     and (r.hits_at_1, r.mrr) == (first.hits_at_1, first.mrr),
                     "repeated run changed its predictions")
    if wl.unbudgeted:
        ref = align(inputs, wl.unbudgeted, work, counts, "unbudgeted")
        counts.check(ref.predictions.read_bytes() == first.predictions.read_bytes()
                     and (ref.hits_at_1, ref.mrr) == (first.hits_at_1, first.mrr),
                     "budgeted predictions differ from the unbudgeted run")
    return runs


# --- serving -----------------------------------------------------------------

def request_line(kind, value, exact=False):
    obj = {"op": "query", kind: value, "k": K}
    if exact:
        obj["exact"] = True
    return json.dumps(obj, separators=(",", ":"))


class Stream:
    """Seeded request mix: NAME_SHARE name queries from the pool, the rest
    entity queries over uniform source ids."""

    def __init__(self, rng, num_sources, pool):
        self.rng, self.num_sources, self.pool = rng, num_sources, pool
        self.lines = {}  # key -> request line, built once per key

    def draw(self):
        if self.rng.random() < NAME_SHARE:
            key = ("name", self.rng.choice(self.pool))
        else:
            key = ("entity", self.rng.randrange(self.num_sources))
        line = self.lines.get(key)
        if line is None:
            line = self.lines[key] = request_line(*key)
        return key, line

    def poisson(self, rate, seconds, swaps_at=()):
        """[(due_us, key, line)], arrivals at `rate`; swap lines at the
        given offsets (seconds)."""
        rows, t = [], self.rng.expovariate(rate)
        pending = sorted(swaps_at)
        while t < seconds:
            while pending and pending[0] <= t:
                rows.append((int(pending.pop(0) * 1e6), ("swap", None), None))
            key, line = self.draw()
            rows.append((int(t * 1e6), key, line))
            t += self.rng.expovariate(rate)
        return rows


@dataclass
class Played:
    """One played step; times in ns since the step started, -1 = never."""
    keys: list
    due: list
    send: list
    recv: list
    ok: list
    version: list
    ids: list
    summary: dict

    def timed_us(self):
        """(due, latency) in us of every answered query."""
        return [(d / 1e3, (r - d) / 1e3)
                for k, d, r in zip(self.keys, self.due, self.recv)
                if k[0] in ("entity", "name") and r >= 0]

    def latencies_us(self):
        return [latency for _, latency in self.timed_us()]

    def lateness_us(self):
        return [(s - d) / 1e3 for s, d in zip(self.send, self.due) if s >= 0]


class Client:
    """One e2e_client process; it spawns and owns the server."""

    def __init__(self, index, work):
        self.work = work
        # Swaps reload the same artifact, so answers must not change.
        self.swap_line = json.dumps({"op": "swap", "index": str(index)},
                                    separators=(",", ":"))
        # Its own process group, so an error path can stop the client and
        # the server it spawned together.
        self.proc = subprocess.Popen(
            [str(CLIENT), "--", str(CLI), "serve", "--index", str(index),
             *THREADS, "--k", str(K)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(work), start_new_session=True)
        self.steps = 0
        self.server_pid = None
        ready = self._reply()
        if "ready_ns" not in ready:
            self.proc.wait()
            raise BenchError("the server exited before it was ready")
        self.server_pid = ready["server_pid"]
        log(f"  server ready {ready['ready_ns'] / 1e9:.3f} s after its spawn")

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError("e2e_client exited unexpectedly")
        return json.loads(line)

    def play(self, rows):
        self.steps += 1
        schedule = self.work / f"schedule{self.steps}.tsv"
        result = self.work / f"result{self.steps}.tsv"
        schedule.write_text("".join(
            f"{due}\t{self.swap_line if key[0] == 'swap' else line}\n"
            for due, key, line in rows))
        self.proc.stdin.write(f"play {schedule} {result}\n")
        self.proc.stdin.flush()
        summary = self._reply()
        due, send, recv, ok, version, ids = [], [], [], [], [], []
        for row in result.read_text().splitlines():
            d, s, r, o, v, i = row.split("\t")
            due.append(int(d))
            send.append(int(s))
            recv.append(int(r))
            ok.append(o == "1")
            version.append(int(v))
            ids.append([] if i == "-" else list(map(int, i.split(","))))
        schedule.unlink()
        result.unlink()
        return Played([k for _, k, _ in rows], due, send, recv, ok, version,
                      ids, summary)

    def quit(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        final = self._reply()
        self.proc.wait()
        return final

    def kill(self):
        """Stops the client and its server if they still run, and waits
        until both have ended."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        if self.server_pid is not None:
            # The server is the client's child, so only its state is
            # visible here: gone, or a zombie waiting to be reaped.
            stat = Path(f"/proc/{self.server_pid}/stat")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                        break
                except (FileNotFoundError, IndexError):
                    break
                time.sleep(0.01)


class ServeCheck:
    """Checks one server's responses against the batch predictions and the
    first answers to each name query, which `name_answers` shares across
    servers of the same artifact. Entity answers given before the batch
    predictions exist wait for `settle`."""

    def __init__(self, answers, counts, name_answers):
        self.answers, self.counts = answers, counts
        self.name_answers = name_answers
        self.version = 1
        self.bad = 0
        self.unsettled = []  # (source id, served top 1)

    def verify(self, played, label):
        """Checks one played step; returns how many responses were bad."""
        bad_before = self.bad
        for key, ok, version, ids in zip(played.keys, played.ok,
                                         played.version, played.ids):
            kind, value = key
            if kind == "swap":
                good = ok and version == self.version + 1
                self.version = version if ok else self.version
            elif kind == "entity":
                got = ids[0] if ids else None
                good = ok and version == self.version
                if good and self.answers.top1 is None:
                    self.unsettled.append((value, got))
                    continue
                good = good and got == self.answers.top1[value]
            elif kind == "name":
                known = self.name_answers.setdefault(value, ids)
                good = ok and version == self.version and ids == known
            else:  # exact name
                good = ok and version == self.version and len(ids) > 0
            if not self.counts.op(good, f"bad {kind} response"):
                self.bad += 1
        if played.summary.get("server_gone"):
            raise BenchError("the server exited during a phase")
        bad = self.bad - bad_before
        log(f"  {label}: {len(played.keys)} sent, "
            f"{len(played.keys) - bad} succeeded, {bad} failed"
            + (f", {len(self.unsettled)} to settle" if self.unsettled else ""))
        return bad

    def settle(self):
        """Checks the entity answers held back for the batch predictions."""
        for source, got in self.unsettled:
            if not self.counts.op(got == self.answers.top1[source],
                                  "bad entity response"):
                self.bad += 1
        self.unsettled = []


def sender_late(played):
    """(fell behind, worst lateness in us). A preempted sender catches up
    and its stall still counts in the latencies, which run from due times;
    a sender that cannot keep the rate is late on most requests."""
    late = played.lateness_us()
    return stats.median(late) > LATE_LIMIT_US, max(late)


def describe(label, values, want):
    value, used, n = stats.tail_percentile(values, want)
    log(f"  {label}: p{used:g} of {n} = {value:.1f} us")
    return value


def timed_phase(client, check, rows, label):
    """Plays rows; an invalid phase (sender behind schedule) is replayed
    once, then fails the run."""
    for attempt in range(2):
        played = client.play(rows)
        check.verify(played, label)
        late, worst = sender_late(played)
        if not late:
            return played
        log(f"  {label}: sender fell behind (worst {worst / 1e3:.2f} ms); "
            f"phase invalid" + ("; replaying" if attempt == 0 else ""))
    raise BenchError(f"{label}: sender could not keep its schedule")


def verify_step(client, check, answers, pool):
    """Closed-loop sweep: every source entity, every pool name by ANN and
    exactly. Returns (recall@10, top-1 agreement)."""
    rows = [(0, ("entity", e), request_line("entity", e))
            for e in range(len(answers.source))]
    rows += [(0, ("name", n), request_line("name", n)) for n in pool]
    rows += [(0, ("exact", n), request_line("name", n, exact=True)) for n in pool]
    played = client.play(rows)
    check.verify(played, "verification sweep")
    exact = {k[1]: ids for k, ids in zip(played.keys, played.ids)
             if k[0] == "exact"}
    recall, agree = [], []
    for name in pool:
        ann, ref = check.name_answers[name], exact[name]
        recall.append(len(set(ann) & set(ref)) / len(ref) if ref else 1.0)
        agree.append(bool(ann) and bool(ref) and ann[0] == ref[0])
    return sum(recall) / len(recall), sum(agree) / len(agree)


def name_pool(answers, rng):
    pool = rng.sample(answers.test_sources, min(NAME_POOL, len(answers.test_sources)))
    return sorted(set(pool))


def reference_phase(client, check, stream, seconds):
    """The reference rate: p50, windowed p99 and the sender's lateness."""
    ref = timed_phase(client, check,
                      stream.poisson(REFERENCE_QPS, 0.2 * seconds),
                      "reference phase")
    due, lat = zip(*ref.timed_us())
    describe("reference latency", lat, 50.0)
    describe("reference latency", lat, 99.0)
    out = {"p50_us": stats.windowed_percentile(due, lat, REFERENCE_WINDOWS,
                                               50.0)[0]}
    log(f"  reference latency: median of {REFERENCE_WINDOWS} windows' "
        f"p50 = {out['p50_us']:.1f} us")
    out["p99_us"], used, n = stats.windowed_percentile(due, lat,
                                                       REFERENCE_WINDOWS)
    log(f"  reference latency: median of {REFERENCE_WINDOWS} windows' "
        f"p{used:g} (>= {n} samples each) = {out['p99_us']:.1f} us")
    out["gen_late_ms"] = describe("reference sender lateness",
                                  ref.lateness_us(), 99.0) / 1e3
    return out


def capacity_phase(client, check, stream, seconds):
    """Highest rate meeting the p99 limit with no growing backlog."""
    probe_s = seconds / 50.0

    def attempt(rate):
        # Long enough for a true p99 at low rates, within reason.
        played = client.play(stream.poisson(
            rate, min(max(probe_s, PROBE_MIN_REQUESTS / rate), 5 * probe_s)))
        # A failed response misses the latency limit.
        bad = check.verify(played, f"capacity probe {rate:.0f}/s")
        due, lat = zip(*played.timed_us())
        p99, used, n = stats.windowed_percentile(due, lat, PROBE_WINDOWS)
        grows = stats.backlog_grows([d / 1e3 for d in played.due],
                                    [r / 1e3 for r in played.recv],
                                    rate, P99_LIMIT_US)
        late, _ = sender_late(played)
        passed = p99 <= P99_LIMIT_US and not grows and not late and bad == 0
        log(f"  capacity probe {rate:9.0f}/s: median of {PROBE_WINDOWS} "
            f"windows' p{used:g} (>= {n} each) = {p99:.0f} us, "
            f"backlog {'grows' if grows else 'steady'}"
            f"{', sender late' if late else ''} -> "
            f"{'pass' if passed else 'fail'}")
        return passed

    # One attempt per rate: a stall of the host moves one window of a
    # probe, not the median of its windows' p99s. The start, 12k/s, is
    # below every capacity seen (23k-50k/s), so no probe is spent on the
    # rates below it, which every run passes.
    capacity, _ = stats.capacity_search(
        attempt, 6 * REFERENCE_QPS,
        max_probes=8, floor=REFERENCE_QPS / 16)
    if capacity is None:
        raise BenchError("the server missed the p99 limit even at "
                         f"{REFERENCE_QPS / 16:.0f}/s")
    return capacity


def swap_step(client, check, stream, seconds, counts):
    """The reference rate for 0.05 x seconds with one swap, reloading the
    artifact, at its middle; its p99, which is that swap's stall."""
    step_s = 0.05 * seconds
    before = check.version
    played = timed_phase(client, check,
                         stream.poisson(REFERENCE_QPS, step_s, [step_s / 2]),
                         "swap step")
    # A replayed step swaps again.
    counts.check(check.version - before in (1, 2),
                 f"a swap step moved the index version from {before} "
                 f"to {check.version}")
    return describe("swap step latency", played.latencies_us(), 99.0)


class Session:
    """One client, the server it spawned over the index, and the check of
    the server's responses. On leaving the `with` block both are stopped."""

    def __init__(self, index, answers, name_answers, work, counts):
        self.counts = counts
        self.client = Client(index, work)
        counts.op(True)
        self.check = ServeCheck(answers, counts, name_answers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.client.kill()
        return False

    def quit(self):
        final = self.client.quit()
        self.counts.op(final["exit"] == 0, "serve exited non-zero")
        return final


def reference_session(index, answers, seed, seconds, work, counts):
    """The traced run's serve session: the verification sweep, the
    reference phase, then a swap step."""
    rng = random.Random(f"serve-{seed}")
    pool = name_pool(answers, rng)
    stream = Stream(rng, len(answers.source), pool)
    with Session(index, answers, {}, work, counts) as session:
        verify_step(session.client, session.check, answers, pool)
        out = reference_phase(session.client, session.check, stream, seconds)
        out["swap_p99_us"] = swap_step(session.client, session.check, stream,
                                       seconds, counts)
        session.quit()
    out["requests_failed"] = session.check.bad
    return out


# --- trace 0: end-to-end -----------------------------------------------------

def report(values, section):
    """{name: {"value", "unit"}} for the metrics BENCHMARK.json lists in
    `section`, with its units; other keys of `values` are not metrics."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {section} metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def end_to_end(wl, seed, seconds, work, counts):
    """The stages, in order: generate the inputs; `index-build`; a short
    serve session (a capacity search); `run` (the batch window); the main
    serve session (the verification sweep, a swap step, a capacity search,
    a swap step). The short measurements repeat between the long stages,
    so each median or mean samples the host across the run, not one
    moment of it: input generations at four points and capacity searches
    at two."""
    setup, capacities = [], []
    inputs = generations(wl, seed, work, counts, setup)
    answers = Answers(inputs, work, counts)
    rng = random.Random(f"serve-{seed}")
    pool = name_pool(answers, rng)
    stream = Stream(rng, len(answers.source), pool)
    name_answers = {}  # one artifact: every server must answer alike

    # The streaming workload builds its index unbudgeted: the fused matrix
    # is bit-identical (batch_phase checks the predictions) and align_s
    # already times the streamed pipeline.
    index = work / "index.lea"
    index_build = must(run_process(
        [CLI, "index-build", *inputs.flags(),
         *pipeline_flags(wl.unbudgeted or wl.flags, work),
         "--index-out", index], work, "index-build.log"), counts, "index-build")

    generations(wl, seed, work, counts, setup)
    # The entity answers of this session wait for run's predictions.
    with Session(index, answers, name_answers, work, counts) as early:
        capacities.append(capacity_phase(early.client, early.check, stream,
                                         seconds))
        early.quit()

    runs = batch_phase(wl, inputs, work, counts, seconds / 4.0)
    answers.predicted(runs[0].predictions)
    early.check.settle()

    generations(wl, seed, work, counts, setup)
    with Session(index, answers, name_answers, work, counts) as main:
        recall, agreement = verify_step(main.client, main.check, answers, pool)
        # Exactly two swaps: the server's peak RSS grows with its swaps.
        swap_step(main.client, main.check, stream, seconds, counts)
        capacities.append(capacity_phase(main.client, main.check, stream,
                                         seconds))
        swap_step(main.client, main.check, stream, seconds, counts)
        final = main.quit()
    generations(wl, seed, work, counts, setup)

    log("  input generations: " + ", ".join(f"{x:.3f}" for x in setup) + " s")
    log("  capacities: " + ", ".join(f"{x:.0f}" for x in capacities) + " /s")
    return report({
        "setup_s": stats.median(setup),
        "align_s": stats.median([r.proc.wall_s for r in runs]),
        "peak_rss_mb": stats.median([r.proc.rss_mb for r in runs]),
        "hits_at_1": runs[0].hits_at_1,
        "mrr": runs[0].mrr,
        "index_build_s": index_build.wall_s,
        "serve_capacity_qps": statistics.fmean(capacities),
        "serve_rss_mb": final["rss_kb"] / 1024.0,
        "serve_recall_at_10": recall,
        "serve_top1_agreement": agreement,
    }, "end_to_end")


# --- trace 1: per layer ------------------------------------------------------

def trace_requests(answers, seed, path):
    """The engine's timed requests: the serving mix, then each pool name
    once through the exact path."""
    rng = random.Random(f"trace-{seed}")
    pool = name_pool(answers, rng)
    stream = Stream(rng, len(answers.source), pool)
    lines = [stream.draw()[1] for _ in range(TRACE_REQUESTS)]
    lines += [request_line("name", n, exact=True) for n in pool]
    path.write_text("\n".join(lines) + "\n")


def per_layer(wl, seed, seconds, work, counts):
    inputs = generate(wl, seed, work, counts, [])
    untraced = align(inputs, wl.flags, work, counts, "untraced")
    if wl.unbudgeted:
        ref = align(inputs, wl.unbudgeted, work, counts, "unbudgeted")
        counts.check(ref.predictions.read_bytes() == untraced.predictions.read_bytes(),
                     "budgeted predictions differ from the unbudgeted run")
    answers = Answers(inputs, work, counts)
    answers.predicted(untraced.predictions)
    requests = work / "requests.txt"
    trace_requests(answers, seed, requests)

    trace_json = work / "trace.json"
    index = work / "probe-index.lea"
    must(run_process(
        [PROBE, "trace", *inputs.flags(), *pipeline_flags(wl.flags, work),
         "--pred", untraced.predictions, "--requests", requests,
         "--index-out", index, "--out", trace_json,
         "--run-id", work.name], work, "trace.log"), counts, "traced run")
    trace = json.loads(trace_json.read_text())
    values, samples, spans = trace["values"], trace["samples"], trace["spans"]
    for name in ("check.pred_mismatches", "check.served_entity_mismatches",
                 "check.engine_failed", "check.loop_failed"):
        counts.check(values[name] == 0, f"{name} = {values[name]:g}")
    counts.check((values["eval.hits_at_1"], values["eval.mrr"])
                 == (untraced.hits_at_1, untraced.mrr),
                 "traced evaluation differs from the CLI's")
    # A second untraced run brackets the traced one: on a host whose speed
    # drifts within a minute, their mean is the untraced time of the
    # traced run's moment.
    after = align(inputs, wl.flags, work, counts, "untraced-after")
    counts.check(after.predictions.read_bytes() == untraced.predictions.read_bytes(),
                 "repeated run changed its predictions")
    untraced_runs = (untraced, after)

    serve = reference_session(index, answers, seed, seconds, work, counts)

    layers = stats.layer_self_times(spans, "traced_run")
    explained = sum(layers.values())
    traced = next(s["end"] - s["start"] for s in spans if s["name"] == "traced_run")
    align_s = statistics.fmean(r.proc.wall_s for r in untraced_runs)
    serial = sum(values[k] for k in ("name.sens_s", "name.stns_s", "name.fuse_s",
                                     "name.augment_s", "partition.s",
                                     "structure.train_s", "fusion.s", "eval.s"))
    entity_p50 = stats.tail_percentile(samples["serve.entity_us"], 50.0)[0]
    name_p50 = stats.tail_percentile(samples["serve.name_us"], 50.0)[0]
    exact_p50 = stats.tail_percentile(samples["serve.name_exact_us"], 50.0)[0]
    log("  engine latency (single requests):")
    entity_p99 = describe("entity", samples["serve.entity_us"], 99.0)
    name_p99 = describe("name", samples["serve.name_us"], 99.0)
    for name, seconds_ in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"  self {name:18s} {seconds_:8.3f} s")
    log(f"  explained {explained:.3f} s of align_s {align_s:.3f} s "
        f"(untraced runs {untraced.proc.wall_s:.3f} s, {after.proc.wall_s:.3f} s)")

    # The DAG executor is the untraced runs' RunLargeEa: their run reports
    # give the dag and par numbers and the stream budget gauges.
    dag_run_s = statistics.fmean(r.report["total"]["seconds"]
                                 for r in untraced_runs)
    total = untraced.report["total"]
    counters = untraced.report["metrics"]["counters"]
    gauges = untraced.report["metrics"]["gauges"]
    budgeted = "--memory-budget-mb" in wl.flags
    derived = {
        "dag.run_s": dag_run_s,
        "dag.overlap_s": serial - dag_run_s,
        "dag.deferrals": gauges["dag.nodes.deferred"],
        "dag.peak_tracked_mb": total["peak_bytes"] / 2**20,
        "par.utilization": gauges["par.utilization"],
        "par.worker_idle_s": counters["par.worker_idle_micros"] / 1e6,
        "stream.budget.peak_mb": gauges.get("stream.budget.peak_bytes", 0) / 2**20,
        # Unbudgeted runs publish no stream.budget gauges; they are
        # compliant by definition, as dag.budget.compliant counts them.
        "stream.budget.compliant":
            gauges["stream.budget.compliant"] if budgeted else 1.0,
        "serve.entity_p50_us": entity_p50,
        "serve.entity_p99_us": entity_p99,
        "serve.name_p50_us": name_p50,
        "serve.name_p99_us": name_p99,
        "serve.name_exact_p50_us": exact_p50,
        "serve.ann_speedup": exact_p50 / name_p50,
        "serve.ref_p50_us": serve["p50_us"],
        "serve.ref_p99_us": serve["p99_us"],
        "serve.swap_p99_us": serve["swap_p99_us"],
        "serve.gen_late_ms": serve["gen_late_ms"],
        "serve.requests_failed": serve["requests_failed"],
        "trace.explained_fraction": explained / align_s,
        "trace.overhead_s": traced - align_s,
        "trace.remainder_s": align_s - explained,
    }
    return report({**values, **derived}, "per_layer")


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input and query-stream seed (default: the tier's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    # A terminated benchmark still stops and reaps what it started: the
    # exit unwinds through the cleanup paths.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seed = wl.seed if args.seed is None else args.seed

    try:
        build()
    except BenchError as e:
        log(f"e2ebench: {e}")
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    counts = Counts()
    before = host_sample()
    started = time.time()
    try:
        run = per_layer if args.trace else end_to_end
        metrics = run(wl, seed, args.seconds, work, counts)
    except BenchError as e:
        log(f"e2ebench: {args.workload}: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = host_record(before, host_sample())
    for problem in counts.problems[:20]:
        log(f"e2ebench: check failed: {problem}")
    result = {"correct": not counts.problems and counts.failed == 0,
              "attempted": counts.attempted, "failed": counts.failed,
              "metrics": metrics}
    with open(WORK / "host-noise.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": seed,
                            "trace": args.trace, "started": started,
                            "wall_s": time.time() - started, **host,
                            "result": result}) + "\n")
    log(f"e2ebench: host {json.dumps(host)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
