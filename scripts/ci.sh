#!/usr/bin/env bash
# Full local CI gate. Mirrors what the tier-1 check runs, plus lints.
# Everything is offline: the workspace has zero registry dependencies
# (see third_party/ for the in-tree proptest shim).
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

# The benchmark is its own workspace, so nothing above builds it or
# compiles its calls into instrep-core's API. Its test runs every
# workload at tiny scale and checks that every count repeats exactly.
echo "==> benchmark self-test (perfbench, tiny scale)"
python3 benchmark/test_run.py

# Each export's schema is checked by the instrep-repro CLI tests, which
# parse the document; the smoke runs below check that every output
# leaves table stdout byte-identical.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# results/ is the published record: a fresh release run at small scale
# must reproduce its stdout and both CSVs byte for byte. Regenerate with
#   target/release/instrep-repro --scale small --csv results/small \
#       >results/repro_small.txt
echo "==> results/ match the program (--scale small, release)"
target/release/instrep-repro --scale small --csv "$SMOKE_DIR/small" \
    >"$SMOKE_DIR/repro_small.txt" 2>/dev/null
for f in repro_small.txt small_summary.csv small_breakdowns.csv; do
    cmp "results/$f" "$SMOKE_DIR/$f" || {
        echo "results/$f differs from a fresh --scale small run" >&2
        exit 1
    }
done

# The tracker-cap and reuse-geometry ablations of every family, which
# EXPERIMENTS.md quotes. Regenerate with the loop below, writing to
# results/reuse_buffer_sweep.txt.
echo "==> results/reuse_buffer_sweep.txt matches the example (release)"
cargo build --release --offline --example reuse_buffer_sweep
for w in $(target/release/instrep-repro --list | tail -n +2 | cut -d' ' -f1); do
    target/release/examples/reuse_buffer_sweep "$w"
    echo
done >"$SMOKE_DIR/reuse_buffer_sweep.txt"
cmp results/reuse_buffer_sweep.txt "$SMOKE_DIR/reuse_buffer_sweep.txt" || {
    echo "results/reuse_buffer_sweep.txt differs from a fresh sweep" >&2
    exit 1
}

# A listing names an address shared by several labels with the first
# one defined, so every family's hottest-function listing is the same
# bytes from run to run.
echo "==> disassembly listings repeat byte for byte (examples/disassemble, release)"
cargo build --release --offline --example disassemble
for w in $(target/release/instrep-repro --list | tail -n +2 | cut -d' ' -f1); do
    for RUN in 1 2; do
        target/release/examples/disassemble "$w" >"$SMOKE_DIR/disasm-$w-$RUN.txt"
    done
    cmp "$SMOKE_DIR/disasm-$w-1.txt" "$SMOKE_DIR/disasm-$w-2.txt" || {
        echo "examples/disassemble $w printed two different listings" >&2
        exit 1
    }
done

# The goldens run one workload, where --jobs clamps to one thread. All
# ten families, tables and both §3 checks, must print the same bytes
# whatever the thread count.
echo "==> every family prints the same bytes at --jobs 1 and 4 (tiny, release)"
for JOBS in 1 4; do
    target/release/instrep-repro --scale tiny --jobs "$JOBS" \
        >"$SMOKE_DIR/tiny-j$JOBS.txt" 2>/dev/null
done
cmp "$SMOKE_DIR/tiny-j1.txt" "$SMOKE_DIR/tiny-j4.txt" || {
    echo "--scale tiny output differs between --jobs 1 and --jobs 4" >&2
    exit 1
}

# A reader that closes stdout early must not crash instrep-repro: the
# pipeline passes under pipefail only if it exits 0.
echo "==> closed-stdout smoke (| head -1)"
target/release/instrep-repro --scale tiny --only compress 2>"$SMOKE_DIR/pipe.err" |
    head -1 >/dev/null || {
    echo "instrep-repro failed when its stdout closed early" >&2
    exit 1
}
grep -q panicked "$SMOKE_DIR/pipe.err" && {
    echo "instrep-repro panicked when its stdout closed early" >&2
    exit 1
}

echo "==> metrics smoke run (--metrics-out)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --metrics-out "$SMOKE_DIR/metrics.json" >/dev/null

echo "==> trace + interval smoke run (stdout-identity check)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 >"$SMOKE_DIR/plain.txt"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --trace-out "$SMOKE_DIR/trace.json" \
    --interval 1000 --interval-out "$SMOKE_DIR/series.jsonl" \
    >"$SMOKE_DIR/traced.txt"
cmp -s "$SMOKE_DIR/plain.txt" "$SMOKE_DIR/traced.txt" || {
    echo "tracing perturbed table stdout (plain vs traced differ)" >&2
    exit 1
}

echo "==> profile smoke run (folded hygiene, stdout-identity)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --profile-out "$SMOKE_DIR/profile.json" \
    --profile-folded "$SMOKE_DIR/profile.folded" \
    >"$SMOKE_DIR/profiled.txt"
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

echo "==> loop-profiler smoke run (folded hygiene, jobs identity)"
target/debug/instrep-repro --scale tiny --only compress --table 1 \
    --jobs 2 --loops-out "$SMOKE_DIR/loops.json" \
    --loops-folded "$SMOKE_DIR/loops.folded" >"$SMOKE_DIR/looped.txt"
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
# Coverage curves are stored as (weight, count) runs: this entry is a
# few KB, against ~180 KB when every instance's weight was stored.
for f in "$CACHE_DIR"/*.bin; do
    SIZE=$(wc -c <"$f")
    [ "$SIZE" -le 16384 ] || {
        echo "cache entry $f is $SIZE bytes, over the 16 KiB bound" >&2
        exit 1
    }
done
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
# move a byte, and the exposition file must be Prometheus-shaped.
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
# A source that compiles, in a line under one read chunk over the cap:
# refused as well, not served because its newline came in that read.
src = "int main() { return 7; }"
line = json.dumps({"schema_version": 1, "id": 9, "source": src})
line = line.replace(src, src + " " * (132000 - len(line)))
assert len(line) == 132000
r = ask(line)
assert r["ok"] is False and r["error"] == "oversized", r

# Backpressure: worker busy + the one queue slot taken => reject #3
# with a retry hint, while the two admitted requests still finish. The
# warm client's request is answered from the cache on its connection
# meanwhile: the queue bounds only work that compiles or simulates.
a, b = connect(), connect()
a.sendall((SLOW % 1).encode() + b"\n")
time.sleep(0.4)
b.sendall((SLOW % 2).encode() + b"\n")
time.sleep(0.2)
r = ask(json.dumps({"schema_version": 1, "id": 1, "workload": "compress",
                    "scale": "tiny", "seed": 1998}))
assert r["ok"] is True and r["cache"] == "hit", r
r = ask(SLOW % 3)
assert r["ok"] is False and r["error"] == "overloaded", r
assert r.get("retry_after_ms", 0) > 0, r
# An unknown workload can never run: it is refused on its connection,
# not told to retry for a queue slot (the overload count stays 1).
r = ask(json.dumps({"schema_version": 1, "id": 4, "workload": "nope"}))
assert r["ok"] is False and r["error"] == "bad_request", r
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

echo "CI OK"
