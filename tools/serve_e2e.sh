#!/usr/bin/env bash
# End-to-end exercise of the serving layer (DESIGN.md §15) on real
# binaries with a tiny dataset:
#
#   1. generate a scaled-down ids15k pair;
#   2. batch-align it (`largeea_cli run --out`) to get the fused
#      matrix's own predictions;
#   3. build a serve index from the same flags (`index-build`, same
#      pipeline fingerprint as the run);
#   4. drive `largeea_cli serve` over a scripted stdin session: a
#      top-1 query for every source entity, a mid-stream version swap,
#      re-queries after the swap, stats, quit;
#   5. assert, in order: every served top-1 equals the batch
#      prediction line for that entity (the fused matrix re-served),
#      answers are identical across the swap, the version counter
#      moved 1 -> 2, and the stats row counted exactly one swap;
#   6. tamper with the artifact and assert the loader refuses it
#      (DATA_LOSS), leaving the good index unaffected;
#   7. on a larger index (IDS15K at full scale, a ~6 MiB artifact), read
#      the server's VmRSS after its first load and its VmHWM after two
#      swaps to the same file, both from /proc/<pid>/status, and fail if
#      the peak exceeds the post-load RSS by more than one artifact size
#      plus 4 MiB: a mapped index costs what its sections touch, and a
#      retired version is unmapped when it drops.
#
# Usage: tools/serve_e2e.sh   (BUILD_DIR=build, WORK_DIR=mktemp by
# default; CI runs it as a visible step on the default preset.)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CLI="${BUILD_DIR}/examples/largeea_cli"
if [[ -z "${WORK_DIR:-}" ]]; then
  WORK_DIR="$(mktemp -d)"
  trap 'rm -rf "${WORK_DIR}"' EXIT
fi

COMMON_FLAGS=(
  --source "${WORK_DIR}/source.tsv" --target "${WORK_DIR}/target.tsv"
  --seeds "${WORK_DIR}/train.tsv" --test "${WORK_DIR}/test.tsv"
  --epochs 5 --batches 2 --log-level warn
)

echo "=== serve e2e: generate + batch run + index-build ==="
"${CLI}" generate --tier ids15k --pair enfr --scale 0.03 \
  --out_dir "${WORK_DIR}"
"${CLI}" run "${COMMON_FLAGS[@]}" --out "${WORK_DIR}/pred.tsv"
"${CLI}" index-build "${COMMON_FLAGS[@]}" \
  --index-out "${WORK_DIR}/serve.idx" | tee "${WORK_DIR}/indexbuild.log"

echo "=== serve e2e: scripted session with mid-stream swap ==="
# Source-entity count from index-build's own summary line
# ("... N+M entities ..."): the session queries every source id once.
NUM_SOURCES="$(sed -n 's/.*: \([0-9]*\)+[0-9]* entities.*/\1/p' \
  "${WORK_DIR}/indexbuild.log")"
[[ -n "${NUM_SOURCES}" ]] || {
  echo "serve_e2e.sh: FAIL: cannot parse entity count" >&2
  exit 1
}
python3 - "${WORK_DIR}" "${NUM_SOURCES}" <<'EOF'
import json, sys
work, n = sys.argv[1], int(sys.argv[2])
with open(f"{work}/session_in.jsonl", "w") as f:
    for e in range(n):
        f.write(json.dumps({"op": "query", "entity": e, "k": 1}) + "\n")
    f.write(json.dumps({"op": "swap", "index": f"{work}/serve.idx"}) + "\n")
    for e in range(min(n, 10)):
        f.write(json.dumps({"op": "query", "entity": e, "k": 1}) + "\n")
    f.write(json.dumps({"op": "stats"}) + "\n")
    f.write(json.dumps({"op": "quit"}) + "\n")
EOF
"${CLI}" serve --index "${WORK_DIR}/serve.idx" \
  < "${WORK_DIR}/session_in.jsonl" > "${WORK_DIR}/session_out.jsonl"

python3 - "${WORK_DIR}" "${NUM_SOURCES}" <<'EOF'
import json, sys
work, n = sys.argv[1], int(sys.argv[2])
lines = [json.loads(l) for l in open(f"{work}/session_out.jsonl")]
assert all(l["ok"] for l in lines), [l for l in lines if not l["ok"]]

queries, swap, requeries = lines[:n], lines[n], lines[n + 1:n + 1 + min(n, 10)]
stats, bye = lines[-2], lines[-1]

# Pre-swap answers: one index version end to end.
assert all(q["version"] == 1 for q in queries)
fingerprints = {q["fingerprint"] for q in queries}
assert len(fingerprints) == 1, fingerprints

# The batch predictions file lists, in ascending source-id order, the
# fused-matrix argmax of every source with a non-empty row — exactly
# the entities the serve session answered with candidates. Served
# top-1 must BE the batch answer, name for name.
pred = [l.rstrip("\n").split("\t")[1] for l in open(f"{work}/pred.tsv")]
served = [q["candidates"][0]["name"] for q in queries if q["candidates"]]
assert len(served) == len(pred), (len(served), len(pred))
mismatches = [i for i, (s, p) in enumerate(zip(served, pred)) if s != p]
assert not mismatches, mismatches[:5]

# Swap: version moved, fingerprint (same artifact) did not, answers
# across the swap are identical.
assert swap["version"] == 2 and swap["fingerprint"] in fingerprints, swap
for before, after in zip(queries, requeries):
    assert after["version"] == 2
    assert after["candidates"] == before["candidates"], (before, after)

assert stats["version_swaps"] == 1 and stats["version"] == 2, stats
assert stats["queries"] == n + len(requeries), stats
assert bye.get("bye") is True, bye
print(f"serve e2e: {len(pred)} served answers match the batch fused "
      f"matrix, swap 1->2 verified, {stats['queries']} queries")
EOF

echo "=== serve e2e: tampered artifact is refused ==="
cp "${WORK_DIR}/serve.idx" "${WORK_DIR}/tampered.idx"
python3 - "${WORK_DIR}" <<'EOF'
import sys
path = f"{sys.argv[1]}/tampered.idx"
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0xFF
open(path, "wb").write(data)
EOF
if "${CLI}" query --index "${WORK_DIR}/tampered.idx" --entity 0 \
    > "${WORK_DIR}/tamper_out" 2>&1; then
  echo "serve_e2e.sh: FAIL: tampered index was accepted" >&2
  exit 1
fi
grep -q "DATA_LOSS" "${WORK_DIR}/tamper_out" || {
  echo "serve_e2e.sh: FAIL: expected DATA_LOSS, got:" >&2
  cat "${WORK_DIR}/tamper_out" >&2
  exit 1
}

echo "=== serve e2e: resident memory across self-swaps ==="
mkdir -p "${WORK_DIR}/rss"
"${CLI}" generate --tier ids15k --pair enfr --scale 1.0 \
  --out_dir "${WORK_DIR}/rss" > /dev/null
"${CLI}" index-build --source "${WORK_DIR}/rss/source.tsv" \
  --target "${WORK_DIR}/rss/target.tsv" --seeds "${WORK_DIR}/rss/train.tsv" \
  --test "${WORK_DIR}/rss/test.tsv" --epochs 5 --batches 2 --log-level warn \
  --index-out "${WORK_DIR}/rss/serve.idx" > /dev/null
python3 - "${CLI}" "${WORK_DIR}/rss/serve.idx" <<'EOF'
import json, os, subprocess, sys
cli, index = sys.argv[1], sys.argv[2]
slack_mib = 4

def status_bytes(pid, key):
    for line in open(f"/proc/{pid}/status"):
        if line.startswith(key + ":"):
            return int(line.split()[1]) * 1024
    raise SystemExit(f"serve_e2e.sh: FAIL: no {key} in /proc/{pid}/status")

server = subprocess.Popen([cli, "serve", "--index", index, "--log-level", "warn"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
ready = server.stderr.readline().strip()

def ask(request):
    server.stdin.write(json.dumps(request) + "\n")
    server.stdin.flush()
    response = json.loads(server.stdout.readline())
    assert response["ok"], response
    return response

ask({"op": "stats"})  # answered, so the first load is done
rss = status_bytes(server.pid, "VmRSS")
for version in (2, 3):
    assert ask({"op": "swap", "index": index})["version"] == version
peak = status_bytes(server.pid, "VmHWM")
ask({"op": "quit"})
assert server.wait() == 0

mib = 1 << 20
artifact = os.path.getsize(index)
print(ready)
print(f"serve e2e: artifact {artifact / mib:.1f} MiB, VmRSS after load "
      f"{rss / mib:.1f} MiB, VmHWM after two swaps {peak / mib:.1f} MiB "
      f"(+{(peak - rss) / mib:.1f} MiB, bound +{artifact / mib + slack_mib:.1f})")
if peak - rss > artifact + slack_mib * mib:
    raise SystemExit("serve_e2e.sh: FAIL: the server's peak RSS grew by more "
                     "than one artifact across two swaps")
EOF

echo "serve_e2e.sh: PASS"
