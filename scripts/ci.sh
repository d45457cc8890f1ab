#!/usr/bin/env bash
# Full local CI gate. Mirrors what the tier-1 check runs, plus lints.
# Everything is offline: the workspace has zero registry dependencies
# (see third_party/ for the in-tree proptest/criterion shims).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> cargo test --features proptest (property tests, offline)"
cargo test -q --workspace --offline --features proptest

echo "==> golden snapshots (byte-for-byte table output)"
cargo test -q -p instrep-repro --offline --test golden

echo "==> metrics smoke run (--metrics-out schema check)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SMOKE="$SMOKE_DIR/metrics.json"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --metrics-out "$SMOKE" >/dev/null
grep -q '"schema_version": 1,' "$SMOKE" || {
    echo "metrics schema drift: expected schema_version 1 in $SMOKE" >&2
    exit 1
}
grep -q '"kind": "metrics",' "$SMOKE" || {
    echo "metrics schema drift: expected kind \"metrics\" in $SMOKE" >&2
    exit 1
}

echo "==> trace + interval smoke run (schema and stdout-identity checks)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 >"$SMOKE_DIR/plain.txt"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --trace-out "$SMOKE_DIR/trace.json" \
    --interval 1000 --interval-out "$SMOKE_DIR/series.jsonl" \
    >"$SMOKE_DIR/traced.txt"
grep -q '"schema_version": 1,' "$SMOKE_DIR/trace.json" || {
    echo "trace schema drift: expected schema_version 1 in trace.json" >&2
    exit 1
}
grep -q '"kind": "trace",' "$SMOKE_DIR/trace.json" || {
    echo "trace schema drift: expected kind \"trace\" in trace.json" >&2
    exit 1
}
head -1 "$SMOKE_DIR/series.jsonl" | grep -q '"kind": "intervals"' || {
    echo "interval schema drift: expected kind \"intervals\" in series.jsonl header" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/traced.txt" || {
    echo "tracing perturbed table stdout (plain vs traced differ)" >&2
    exit 1
}

echo "==> profile smoke run (schema, folded hygiene, stdout-identity)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --profile-out "$SMOKE_DIR/profile.json" \
    --profile-folded "$SMOKE_DIR/profile.folded" \
    >"$SMOKE_DIR/profiled.txt"
grep -q '"schema_version": 1,' "$SMOKE_DIR/profile.json" || {
    echo "profile schema drift: expected schema_version 1 in profile.json" >&2
    exit 1
}
grep -q '"kind": "profile",' "$SMOKE_DIR/profile.json" || {
    echo "profile schema drift: expected kind \"profile\" in profile.json" >&2
    exit 1
}
test -s "$SMOKE_DIR/profile.folded" || {
    echo "folded stacks file is empty" >&2
    exit 1
}
# Collapsed-stack hygiene: every line is `stack count`, one space, no
# tabs or stray whitespace (flamegraph tools are picky about this).
grep -qP '\t| {2}|^ | $' "$SMOKE_DIR/profile.folded" && {
    echo "folded stacks contain stray whitespace" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/profiled.txt" || {
    echo "profiling perturbed table stdout (plain vs profiled differ)" >&2
    exit 1
}
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --annotate compress >"$SMOKE_DIR/annotated.txt"
grep -q 'source-level repetition profile' "$SMOKE_DIR/annotated.txt" || {
    echo "--annotate produced no annotated source view" >&2
    exit 1
}

echo "==> loop-profiler smoke run (schema, folded hygiene, jobs identity)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --loops-out "$SMOKE_DIR/loops.json" \
    --loops-folded "$SMOKE_DIR/loops.folded" >"$SMOKE_DIR/looped.txt"
grep -q '"schema_version": 1,' "$SMOKE_DIR/loops.json" || {
    echo "loops schema drift: expected schema_version 1 in loops.json" >&2
    exit 1
}
grep -q '"kind": "loops",' "$SMOKE_DIR/loops.json" || {
    echo "loops schema drift: expected kind \"loops\" in loops.json" >&2
    exit 1
}
test -s "$SMOKE_DIR/loops.folded" || {
    echo "loop-nest folded stacks file is empty" >&2
    exit 1
}
grep -qP '\t| {2}|^ | $' "$SMOKE_DIR/loops.folded" && {
    echo "loop-nest folded stacks contain stray whitespace" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/looped.txt" || {
    echo "loop profiling perturbed table stdout (plain vs looped differ)" >&2
    exit 1
}
# The loop profile itself is part of the determinism contract: the JSON
# must be byte-identical at every --jobs count, and no run may move the
# table a byte.
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 1 --loops-out "$SMOKE_DIR/loops-j1.json" >"$SMOKE_DIR/looped-j1.txt"
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/looped-j1.txt" || {
    echo "loop profiling perturbed table stdout at --jobs 1" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/loops.json" "$SMOKE_DIR/loops-j1.json" || {
    echo "loop profile differs between --jobs 2 and --jobs 1" >&2
    exit 1
}

echo "==> analysis cache smoke run (cold populate, warm hit, poison catch)"
CACHE_DIR="$SMOKE_DIR/cache"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --cache-dir "$CACHE_DIR" >"$SMOKE_DIR/cold.txt"
ls "$CACHE_DIR"/*.bin >/dev/null 2>&1 || {
    echo "cold --cache-dir run stored no cache entries" >&2
    exit 1
}
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --cache-dir "$CACHE_DIR" \
    --metrics-out "$SMOKE_DIR/warm-metrics.json" >"$SMOKE_DIR/warm.txt"
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/cold.txt" || {
    echo "cold cache run perturbed table stdout (plain vs cold differ)" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/warm.txt" || {
    echo "warm cache run perturbed table stdout (plain vs warm differ)" >&2
    exit 1
}
grep -q '"name": "cache"' "$SMOKE_DIR/warm-metrics.json" || {
    echo "warm cache run recorded no cache phase in metrics" >&2
    exit 1
}
grep -q '"name": "measure"' "$SMOKE_DIR/warm-metrics.json" && {
    echo "warm cache run still executed a measure phase (hit did not short-circuit)" >&2
    exit 1
}
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --cache-dir "$CACHE_DIR" --cache-verify >/dev/null || {
    echo "--cache-verify rejected an honest cache entry" >&2
    exit 1
}
# Truncate every entry: damaged files must degrade to a silent miss.
for f in "$CACHE_DIR"/*.bin; do head -c 16 "$f" >"$f.cut" && mv "$f.cut" "$f"; done
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --cache-dir "$CACHE_DIR" >"$SMOKE_DIR/repaired.txt"
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/repaired.txt" || {
    echo "truncated cache entries changed table stdout" >&2
    exit 1
}
# Poison an entry through the codec (wrong counters, valid checksum):
# a plain run serves it, --cache-verify must catch it.
python3 - "$CACHE_DIR" <<'EOF'
import glob, struct, sys
MASK = (1 << 64) - 1
K = 0x9E37_79B9_7F4A_7C15  # crates/core/src/fxhash.rs
def fxhash64(data):
    h = 0
    full = len(data) - len(data) % 8
    words = [w for (w,) in struct.iter_unpack("<Q", data[:full])]
    rest = data[full:]
    if rest:
        tail = bytearray(8)
        tail[: len(rest)] = rest
        tail[7] = len(rest)
        words.append(struct.unpack("<Q", bytes(tail))[0])
    for w in words:
        h = (((h << 5 | h >> 59) & MASK) ^ w) * K & MASK
    return h
[path] = glob.glob(sys.argv[1] + "/*.bin")
raw = bytearray(open(path, "rb").read())
raw[36 + 2] ^= 0xFF
raw[-8:] = struct.pack("<Q", fxhash64(bytes(raw[36:-8])))
open(path, "wb").write(raw)
EOF
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --cache-dir "$CACHE_DIR" --cache-verify \
    >/dev/null 2>"$SMOKE_DIR/verify.err" && {
    echo "--cache-verify accepted a poisoned cache entry" >&2
    exit 1
}
grep -q 'cache verify failed for compress' "$SMOKE_DIR/verify.err" || {
    echo "--cache-verify failed without naming the poisoned workload" >&2
    exit 1
}

echo "==> interpreter-tier differential smoke (fast vs legacy)"
# The trap-corpus differential calls both loops explicitly.
cargo test -q -p instrep-sim --offline --test differential
# End to end: --interp legacy must print byte-identical tables.
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --interp legacy >"$SMOKE_DIR/interp-legacy.txt"
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/interp-legacy.txt" || {
    echo "--interp legacy changed table stdout (tiers diverge)" >&2
    exit 1
}

echo "==> telemetry smoke run (heartbeats, exposition, stdout-identity)"
# The full telemetry stack on, at two jobs counts: table stdout must not
# move a byte, the heartbeat stream must carry a schema-v1 header plus
# at least one beat, and the exposition file must be Prometheus-shaped.
for JOBS in 1 4; do
    target/debug/instrep-repro --scale tiny --only compress --table 1 \
        --jobs "$JOBS" --heartbeat-out "$SMOKE_DIR/hb$JOBS.jsonl" \
        --heartbeat-ms 10 --telemetry-out "$SMOKE_DIR/telem$JOBS.txt" \
        --progress >"$SMOKE_DIR/telemetry$JOBS.txt" 2>/dev/null
    cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/telemetry$JOBS.txt" || {
        echo "telemetry outputs perturbed table stdout at --jobs $JOBS" >&2
        exit 1
    }
done
head -1 "$SMOKE_DIR/hb1.jsonl" | grep -q '"kind": "heartbeats"' || {
    echo "heartbeat schema drift: expected kind \"heartbeats\" in the header" >&2
    exit 1
}
head -1 "$SMOKE_DIR/hb1.jsonl" | grep -q '"schema_version": 1' || {
    echo "heartbeat schema drift: expected schema_version 1 in the header" >&2
    exit 1
}
BEATS=$(grep -c '"kind": "heartbeat"' "$SMOKE_DIR/hb1.jsonl" || true)
[ "$BEATS" -ge 1 ] || {
    echo "heartbeat stream carried no beats (got $BEATS)" >&2
    exit 1
}
grep -q '^instrep_' "$SMOKE_DIR/telem1.txt" || {
    echo "telemetry exposition has no instrep_ metrics" >&2
    exit 1
}
grep -q '^# TYPE instrep_' "$SMOKE_DIR/telem1.txt" || {
    echo "telemetry exposition has no # TYPE lines" >&2
    exit 1
}

echo "==> legacy entry-point sweep (deleted analyze* shims must stay deleted)"
# The pre-Session analyze* entry points and ProbeConfig are gone; this
# gate keeps them from reappearing anywhere, caller or definition.
# crates/minicc is excluded: its sema::analyze is an unrelated
# compiler pass that predates (and outlives) the pipeline shims.
LEGACY=$(grep -rn --include='*.rs' -P \
    '\banalyze(_many(_with_metrics|_instrumented)?|_with_(metrics|probes))?\s*\(|\bProbeConfig\b' \
    crates src tests examples benches 2>/dev/null |
    grep -v '^crates/minicc/' || true)
if [ -n "$LEGACY" ]; then
    echo "deleted analyze*/ProbeConfig entry points referenced again:" >&2
    echo "$LEGACY" >&2
    exit 1
fi

echo "==> service smoke (daemon protocol, cache reuse, backpressure, graceful drain)"
cargo build -q --offline -p instrep-serve
cargo build -q --offline --example instrep_client
SERVE_SOCK="$SMOKE_DIR/serve.sock"
target/debug/instrep-serve --socket "$SERVE_SOCK" \
    --cache-dir "$SMOKE_DIR/serve-cache" --workers 1 --queue 1 \
    --max-request-bytes 131072 --telemetry-out "$SMOKE_DIR/serve-telem.txt" \
    2>"$SMOKE_DIR/serve.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
for _ in $(seq 50); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || {
    echo "daemon never bound $SERVE_SOCK" >&2
    exit 1
}
# Cold then warm from separate clients: the second request must hit the
# shared cache and the canonical report objects must be byte-identical.
target/debug/examples/instrep_client --socket "$SERVE_SOCK" --workload compress \
    --report-only >"$SMOKE_DIR/serve-cold.json"
target/debug/examples/instrep_client --socket "$SERVE_SOCK" --workload compress \
    >"$SMOKE_DIR/serve-warm.json" 2>"$SMOKE_DIR/serve-warm.err"
grep -q '^cache: hit$' "$SMOKE_DIR/serve-warm.err" || {
    echo "warm daemon request did not hit the shared cache" >&2
    exit 1
}
cmp -s "$SMOKE_DIR/serve-cold.json" "$SMOKE_DIR/serve-warm.json" || {
    echo "cold and warm daemon reports are not byte-identical" >&2
    exit 1
}
# Protocol edges over a raw socket: malformed JSON, an unknown schema
# version (rejected by name), an oversized line, a full queue, and
# nesting bombs in the JSON and in MiniC source.
python3 - "$SERVE_SOCK" <<'EOF'
import json, socket, sys, time

SOCK = sys.argv[1]
SLOW = ('{"schema_version":1,"id":%d,"source":'
        '"int main() { int i; int s = 0; '
        'for (i = 0; i < 100000000; i++) s = s + i; return 0; }",'
        '"skip":0,"window":5000000}')

def connect():
    s = socket.socket(socket.AF_UNIX)
    s.connect(SOCK)
    return s

def read_reply(s):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            raise SystemExit("daemon closed without replying")
        buf += chunk
    return json.loads(buf.decode())

def ask(line):
    s = connect()
    s.sendall(line.encode() + b"\n")
    reply = read_reply(s)
    s.close()
    return reply

r = ask("{this is not json")
assert r["ok"] is False and r["error"] == "bad_request", r
r = ask(json.dumps({"schema_version": 99, "id": 5, "workload": "compress"}))
assert r["ok"] is False and r["error"] == "unsupported_version", r
assert "99" in r["message"] and "1" in r["message"], r
r = ask(json.dumps({"schema_version": 1, "id": 6, "source": "x" * 200000}))
assert r["ok"] is False and r["error"] == "oversized", r

# Backpressure: worker busy + the one queue slot taken => reject #3
# with a retry hint, while the two admitted requests still finish.
a, b = connect(), connect()
a.sendall((SLOW % 1).encode() + b"\n")
time.sleep(0.4)
b.sendall((SLOW % 2).encode() + b"\n")
time.sleep(0.2)
r = ask(SLOW % 3)
assert r["ok"] is False and r["error"] == "overloaded", r
assert r.get("retry_after_ms", 0) > 0, r
for s, rid in ((a, 1), (b, 2)):
    r = read_reply(s)
    assert r["ok"] is True and r["id"] == rid, r
    s.close()

# Nesting bombs well under the line cap are refused as bad requests
# (neither parser recurses without bound), and the daemon keeps serving.
r = ask("[" * 100000)
assert r["ok"] is False and r["error"] == "bad_request", r
blocks = "int main() { " + "{" * 5000 + "}" * 5000 + " return 0; }"
r = ask(json.dumps({"schema_version": 1, "id": 7, "source": blocks}))
assert r["ok"] is False and r["error"] == "bad_request", r
assert "nesting" in r["message"], r
r = ask(json.dumps({"schema_version": 1, "id": 8, "source": "int main() { return 7; }"}))
assert r["ok"] is True and r["id"] == 8, r
print("service protocol smoke OK")
EOF
# Graceful drain: SIGTERM must exit 0 and leave the exposition behind.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
    echo "daemon exited non-zero on SIGTERM (no graceful drain)" >&2
    exit 1
}
SERVE_PID=""
grep -q '^instrep_serve_requests ' "$SMOKE_DIR/serve-telem.txt" || {
    echo "daemon exposition is missing serve_* counters" >&2
    exit 1
}
grep -q '^instrep_serve_rejected_overload 1$' "$SMOKE_DIR/serve-telem.txt" || {
    echo "daemon exposition did not count the overload rejection" >&2
    exit 1
}
grep -q '^instrep_cache_hit ' "$SMOKE_DIR/serve-telem.txt" || {
    echo "daemon exposition is missing shared-cache counters" >&2
    exit 1
}

echo "==> bench trajectory check (scripts/bench.sh --check)"
scripts/bench.sh --check

echo "CI OK"
