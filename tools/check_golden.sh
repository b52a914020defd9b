#!/bin/sh
# Diffs a deterministic bench's --json output against its committed
# golden (results/golden/<bench>.json) byte for byte, after the shared
# normalisation (normalize_json.sh). The goldens are the refactor oracle:
# any change to a virtual-time result fails here, however small.
#
# Usage:
#
#     check_golden.sh <bench-binary> <golden.json>
#
# Re-record a golden (only when a change to the results is intended) by
# setting ZID_RECORD=1; for every bench at once, from the source root:
#
#     ZID_RECORD=1 ctest --test-dir build -R _golden
#
# Exit 0 when the output matches (or was recorded), 1 otherwise.
set -eu

bench="$1"
golden="$2"
tools="$(dirname "$0")"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$bench" --json="$tmpdir/out.json" > /dev/null
"$tools/normalize_json.sh" "$tmpdir/out.json" > "$tmpdir/out.norm"

if [ "${ZID_RECORD:-0}" = 1 ]; then
  cp "$tmpdir/out.norm" "$golden"
  echo "recorded $golden"
  exit 0
fi
if ! cmp -s "$golden" "$tmpdir/out.norm"; then
  echo "FAIL: $(basename "$bench") --json differs from $golden" >&2
  # The documents are one line each: show both around the first change.
  at=$(cmp -l "$golden" "$tmpdir/out.norm" 2>/dev/null |
    awk 'NR == 1 { print $1 }')
  at=${at:-1}
  from=$((at > 80 ? at - 80 : 1))
  echo "golden: $(cut -c "$from-$((at + 80))" "$golden")" >&2
  echo "now:    $(cut -c "$from-$((at + 80))" "$tmpdir/out.norm")" >&2
  exit 1
fi
echo "ok: $(basename "$bench") matches $golden"
