#!/usr/bin/env python3
"""Diffs two bench --json results documents (harness::ResultWriter,
schema in DESIGN.md §7) and fails on regressions beyond tolerance.
Stdlib only; backs the CI perf-regression gate and works by hand:

    ./tools/compare_results.py BASELINE.json CURRENT.json \\
        --tol 'simcore_events_per_sec=0.5:down' \\
        --tol 'simcore_allocs_per_event=0.25:up'

Points are matched across documents by (series name, point label) —
falling back to the x value for unlabeled points. Numeric `meta` values
(environment facts such as wall_ms) are indexed as pseudo-series
"meta.<key>", so tolerance globs can gate them too. Each --tol rule is

    PATTERN=FRAC:DIRECTION

where PATTERN is a glob (fnmatch) over series names, FRAC the allowed
relative change, and DIRECTION which way counts as a regression:

    down  value dropping below baseline*(1-FRAC) fails (throughput)
    up    value rising above baseline*(1+FRAC) fails (latency, allocs)
    both  either direction beyond FRAC fails

A negative FRAC turns the rule into a required improvement: with `up`,
the current value must come in at least |FRAC| BELOW baseline (e.g.
'meta.wall_ms=-0.6:up' demands a >= 60% wall-clock drop — the parallel
speedup gate); with `down`, it must come in at least |FRAC| above.
`both` rejects negative FRAC.

Series not matched by any rule are reported but never gate. A baseline
point missing from the current document always fails (a silently dropped
series is itself a regression). Exit 0 = within tolerance, 1 = regression
or malformed input, 2 = usage error.

--preset NAME prepends a named built-in rule set (combinable with
explicit --tol rules, which take precedence by order). Deterministic
virtual-time results need no tolerance: the committed goldens in
results/golden/ pin them byte for byte (tools/check_golden.sh).

    multidev-speedup
            compares a --sim-threads=N run against a --sim-threads=1
            baseline of the same bench: wall time must drop >= 60%
            (the >= 2.5x acceptance speedup, DESIGN.md §12)."""
import fnmatch
import json
import sys

# Built-in tolerance rule sets (--preset). Order matters: earlier rules
# win, and explicit --tol rules are prepended ahead of any preset.
PRESETS = {
    # Parallel-engine acceptance (DESIGN.md §12): the same bench run with
    # --sim-threads=N on >= 4 cores must finish in at most 40% of the
    # --sim-threads=1 wall time. Virtual-time series are byte-identical
    # across thread counts (check_jobs_identity.sh), so only the
    # wall-clock meta fact is gated here.
    "multidev-speedup": (
        "meta.wall_ms=-0.6:up",
    ),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("series"), list):
        raise ValueError(f"{path}: not a results document")
    return doc


def index_points(doc):
    """(series, point-key) -> value. Key is the label when present, else x.

    Numeric meta values join the index as ("meta.<key>", "meta") so
    tolerance rules can gate environment facts like wall_ms."""
    out = {}
    meta = doc.get("meta")
    if isinstance(meta, dict):
        for k, v in meta.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[(f"meta.{k}", "meta")] = v
    for s in doc["series"]:
        if not isinstance(s, dict):
            continue
        name = s.get("name")
        for p in s.get("points", []):
            if not isinstance(p, dict):
                continue
            key = p.get("label") if p.get("label") else p.get("x")
            v = p.get("value")
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[(name, key)] = v
    return out


def parse_tol(spec):
    try:
        pattern, rule = spec.split("=", 1)
        frac, direction = rule.split(":", 1)
        frac = float(frac)
    except ValueError:
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(want PATTERN=FRAC:down|up|both)")
    if frac == 0 or direction not in ("down", "up", "both"):
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(want PATTERN=FRAC:down|up|both)")
    if frac < 0 and direction == "both":
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(negative FRAC needs a single direction)")
    return pattern, frac, direction


def rule_for(name, rules):
    for pattern, frac, direction in rules:
        if fnmatch.fnmatch(name or "", pattern):
            return frac, direction
    return None


def main(argv):
    paths = []
    rules = []
    preset_rules = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--tol":
            try:
                rules.append(parse_tol(next(it)))
            except StopIteration:
                print("--tol needs an argument", file=sys.stderr)
                return 2
            except ValueError as e:
                print(e, file=sys.stderr)
                return 2
        elif arg.startswith("--tol="):
            try:
                rules.append(parse_tol(arg[len("--tol="):]))
            except ValueError as e:
                print(e, file=sys.stderr)
                return 2
        elif arg == "--preset" or arg.startswith("--preset="):
            if arg == "--preset":
                try:
                    name = next(it)
                except StopIteration:
                    print("--preset needs an argument", file=sys.stderr)
                    return 2
            else:
                name = arg[len("--preset="):]
            if name not in PRESETS:
                print(f"unknown preset '{name}' "
                      f"(have: {', '.join(sorted(PRESETS))})",
                      file=sys.stderr)
                return 2
            preset_rules.extend(parse_tol(spec) for spec in PRESETS[name])
        elif arg.startswith("-"):
            print(f"unrecognized flag {arg}", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rules.extend(preset_rules)  # explicit --tol rules take precedence
    try:
        base_doc, cur_doc = load(paths[0]), load(paths[1])
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(e, file=sys.stderr)
        return 1

    base = index_points(base_doc)
    cur = index_points(cur_doc)
    failures = []
    print(f"{'series':<28} {'point':<22} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}  verdict")
    for (name, key), b in sorted(base.items(), key=lambda kv: str(kv[0])):
        rule = rule_for(name, rules)
        c = cur.get((name, key))
        if c is None:
            verdict = "MISSING" if rule else "missing (ungated)"
            if rule:
                failures.append(f"{name}/{key}: missing from {paths[1]}")
            print(f"{name:<28} {str(key):<22} {b:>12.4g} {'-':>12} "
                  f"{'-':>8}  {verdict}")
            continue
        delta = (c - b) / b if b != 0 else (0.0 if c == 0 else float("inf"))
        if rule is None:
            verdict = "ungated"
        else:
            frac, direction = rule
            bad_down = direction in ("down", "both") and delta < -frac
            bad_up = direction in ("up", "both") and delta > frac
            if bad_down or bad_up:
                verdict = f"FAIL (tol {frac:.0%} {direction})"
                failures.append(
                    f"{name}/{key}: {b:.6g} -> {c:.6g} "
                    f"({delta:+.1%}, tolerance {frac:.0%} {direction})")
            else:
                verdict = "ok"
        print(f"{name:<28} {str(key):<22} {b:>12.4g} {c:>12.4g} "
              f"{delta:>+7.1%}  {verdict}")
    for (name, key) in sorted(set(cur) - set(base), key=lambda kv: str(kv)):
        print(f"{name:<28} {str(key):<22} {'-':>12} "
              f"{cur[(name, key)]:>12.4g} {'-':>8}  new (ungated)")
    if failures:
        print(f"\n{len(failures)} regression(s) vs {paths[0]}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nno regressions vs {paths[0]} "
          f"({len(rules)} tolerance rule(s), "
          f"{sum(1 for k in base if rule_for(k[0], rules))} gated point(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
