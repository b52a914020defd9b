#!/bin/sh
# Verifies the two engine determinism contracts:
#
#  1. ParallelSweep (harness/parallel.h): a figure bench must produce
#     byte-identical stdout and --json output for any --jobs value.
#  2. The parallel discrete-event engine (sim/parallel_sim.h): a bench
#     must produce byte-identical --json, --trace, --timeline, --metrics
#     and --logpages output for every --sim-threads value >= 1 (N=1 runs
#     the same bounded window schedule serially). The last two pin the
#     cross-device aggregates: summed device/NAND/fault counters, the
#     merged stripe stats and the summed SMART page. Single-device
#     benches pass trivially — they use the classic engine regardless of
#     the flag.
#
# Usage:
#
#     check_jobs_identity.sh <bench-binary> [jobs_a] [jobs_b]
#
# Extra bench arguments (e.g. --devices=4 for bench_multidev) can be
# passed via the ZID_BENCH_ARGS environment variable.
#
# The JSON results carry self-timed meta (wall_ms: real elapsed time, not
# simulation output); normalize_json.sh drops it before comparison.
#
# Exit 0 when all outputs match byte-for-byte, 1 otherwise.
set -eu

bench="$1"
jobs_a="${2:-1}"
jobs_b="${3:-4}"
extra="${ZID_BENCH_ARGS:-}"

tools="$(dirname "$0")"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

normalize_json() {
  "$tools/normalize_json.sh" "$1" > "$2"
}

fail=0

# ---- contract 1: --jobs identity ------------------------------------
# shellcheck disable=SC2086  # extra args are intentionally word-split
"$bench" $extra --jobs="$jobs_a" --json="$tmpdir/a.json" > "$tmpdir/a.txt"
# shellcheck disable=SC2086
"$bench" $extra --jobs="$jobs_b" --json="$tmpdir/b.json" > "$tmpdir/b.txt"
normalize_json "$tmpdir/a.json" "$tmpdir/a.json.norm"
normalize_json "$tmpdir/b.json" "$tmpdir/b.json.norm"

if ! cmp -s "$tmpdir/a.json.norm" "$tmpdir/b.json.norm"; then
  echo "FAIL: --json differs between --jobs=$jobs_a and --jobs=$jobs_b" >&2
  fail=1
fi
if ! cmp -s "$tmpdir/a.txt" "$tmpdir/b.txt"; then
  echo "FAIL: stdout differs between --jobs=$jobs_a and --jobs=$jobs_b" >&2
  fail=1
fi

# ---- contract 2: --sim-threads identity -----------------------------
first=""
for n in 1 2 4; do
  # shellcheck disable=SC2086
  "$bench" $extra --sim-threads="$n" \
    --json="$tmpdir/st$n.json" --trace="$tmpdir/st$n.trace" \
    --timeline="$tmpdir/st$n.timeline" --metrics="$tmpdir/st$n.metrics" \
    --logpages="$tmpdir/st$n.logpages" > "$tmpdir/st$n.txt"
  normalize_json "$tmpdir/st$n.json" "$tmpdir/st$n.json.norm"
  if [ -z "$first" ]; then
    first="$n"
    continue
  fi
  for out in json.norm trace timeline metrics logpages txt; do
    if ! cmp -s "$tmpdir/st$first.$out" "$tmpdir/st$n.$out"; then
      echo "FAIL: $out differs between --sim-threads=$first and --sim-threads=$n" >&2
      fail=1
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  echo "ok: $(basename "$bench") byte-identical at --jobs=$jobs_a/$jobs_b and --sim-threads=1/2/4"
fi
exit "$fail"
