#!/usr/bin/env bash
# Performance-trajectory benchmark. Runs the pinned workloads RUNS times
# per scale via `instrep-repro --bench` (which writes a median+IQR
# summary per scale) and wraps the per-scale summaries into one
# `BENCH_<date>.json` trajectory document at the repo root. Commit the
# file: successive entries across PRs chart the pipeline's throughput
# over time (see DESIGN.md for the schema and methodology).
#
# Per-layer costs (each observer, each probe) are not derived here: the
# benchmark under benchmark/ times every layer alone on one recorded
# trace (`core.*_ns_per_event`). Older trajectory files carry
# subtraction-based `observer-costs` and `loops-cost` entries. The
# instrep-repro CLI tests parse every committed trajectory file and
# check its schema.
#
# Modes:
#   scripts/bench.sh            run the benchmark and write BENCH_<date>.json
#                               (suffixed b, c, ... if the date is taken —
#                               re-benching after a perf change on the same
#                               day must not overwrite the 'before' file)
#   scripts/bench.sh --concat   merge all BENCH_*.json, ordered by file
#                               name (dates sort chronologically), into one
#                               bench-history document on stdout
#
# Tunables (env): RUNS (default 3), SCALES ("tiny small"), JOBS (4),
# SEED (1998), OUT (first free BENCH_$(date +%F)*.json), SETTLE_MS (500 —
# repetition-tester settle window).
set -euo pipefail
cd "$(dirname "$0")/.."

# Trajectory files, oldest first (ISO dates in the name sort correctly).
trajectory_files() {
    ls BENCH_*.json 2>/dev/null | LC_ALL=C sort
}

concat_trajectories() {
    local files n first=1
    files="$(trajectory_files)"
    if [ -z "$files" ]; then
        echo "no BENCH_*.json trajectory files to concatenate" >&2
        return 1
    fi
    n="$(echo "$files" | wc -l | tr -d ' ')"
    printf '{\n'
    printf '  "schema_version": 1,\n'
    printf '  "kind": "bench-history",\n'
    printf '  "files": %s,\n' "$n"
    printf '  "entries": [\n'
    for f in $files; do
        if [ "$first" -eq 0 ]; then printf ',\n'; fi
        first=0
        printf '%s' "$(sed 's/^/    /' "$f")"
    done
    printf '\n  ]\n'
    printf '}\n'
}

case "${1:-}" in
--concat)
    concat_trajectories
    exit
    ;;
"") ;;
*)
    echo "usage: scripts/bench.sh [--concat]" >&2
    exit 2
    ;;
esac

RUNS="${RUNS:-3}"
SCALES="${SCALES:-tiny small}"
JOBS="${JOBS:-4}"
SEED="${SEED:-1998}"
SETTLE_MS="${SETTLE_MS:-500}"

# First free BENCH_<date>[b-f].json: a same-day re-bench (before/after a
# perf change) lands beside the earlier file, and the letter suffix
# keeps `ls | sort` chronological.
default_out() {
    local base="BENCH_$(date +%F)" suffix
    for suffix in "" b c d e f; do
        if [ ! -e "$base$suffix.json" ]; then
            echo "$base$suffix.json"
            return
        fi
    done
    echo "too many trajectory files for $base" >&2
    return 1
}
OUT="${OUT:-$(default_out)}"

echo "==> cargo build --release (offline)"
cargo build --release --offline -p instrep-repro

BIN=target/release/instrep-repro
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for scale in $SCALES; do
    echo "==> bench: scale=$scale runs=$RUNS jobs=$JOBS seed=$SEED settle=${SETTLE_MS}ms"
    INSTREP_BENCH_SETTLE_MS="$SETTLE_MS" \
        "$BIN" --scale "$scale" --seed "$SEED" --jobs "$JOBS" --table 1 \
        --bench "$RUNS" --metrics-out "$TMP/$scale.json" >/dev/null
done

{
    printf '{\n'
    printf '  "schema_version": 1,\n'
    printf '  "kind": "bench-trajectory",\n'
    printf '  "date": "%s",\n' "$(date +%F)"
    printf '  "entries": [\n'
    first=1
    for scale in $SCALES; do
        if [ "$first" -eq 0 ]; then printf ',\n'; fi
        first=0
        # Indent the per-scale summary; $(...) strips its trailing newline.
        printf '%s' "$(sed 's/^/    /' "$TMP/$scale.json")"
    done
    printf '\n  ]\n'
    printf '}\n'
} >"$OUT"

echo "wrote $OUT"
