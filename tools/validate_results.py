#!/usr/bin/env python3
"""Validates bench machine-readable output against the DESIGN.md §7/§10
schemas. Stdlib only; used by CI and by hand:

    ./tools/validate_results.py BENCH_fig2.json run.jsonl [more ...]

Three document kinds are auto-detected by shape:

  * --json results documents (top-level object with "bench"/"series")
  * --logpages documents (top-level array of {label, logpages} entries;
    each SMART page must carry the split host_rejects/media_errors
    counters and the fault/health fields — the pre-split 'io_errors'
    field is rejected)
  * --timeline JSONL streams (first line is an object with a "type"
    member; every line must be a timeline record — sample / zone_state /
    die_busy / window — conforming to DESIGN.md §10)

Exit status 0 when every document conforms, 1 otherwise (violations on
stderr)."""
import json
import math
import sys

POINT_NUMBER_FIELDS = ("x", "value")
POINT_NULLABLE_FIELDS = ("mean_ns", "p50_ns", "p95_ns", "p99_ns")

# bench_multidev's --json carries the multi-device scaling acceptance
# numbers: the striped stack must scale appends near-linearly with the
# device count at fixed per-device queue depth, and each throughput point
# must break down into one `parts` entry per device (schema v2).
MULTIDEV_REQUIRED_SERIES = (
    "multidev_append_kiops",
    "multidev_read_kiops",
    "multidev_append_scaling",
    "multidev_read_scaling",
    "multidev_qd_append_kiops",
)
MULTIDEV_REQUIRED_CONFIG = ("profile", "stack", "request_bytes",
                            "append_per_device_qd", "read_per_device_qd")
# device count -> minimum append scaling ratio vs one device.
MULTIDEV_MIN_APPEND_SCALING = {2: 1.8, 4: 3.2}

# bench_crash's --json is the crash/recovery acceptance document
# (DESIGN.md §11): every sweep must be present, no point may report a
# silent corruption, and recovery time must be real (strictly positive)
# exactly when crashes were injected.
CRASH_REQUIRED_SERIES = (
    "zns_recovery_ms_vs_crashes",
    "zns_torn_pages_vs_crashes",
    "zns_crash_lost_mib_vs_crashes",
    "zns_verified_mib_vs_crashes",
    "zns_silent_corruptions_vs_crashes",
    "zns_replayed_dupes_vs_crashes",
    "zns_verified_mib_vs_util",
    "zns_crash_lost_mib_vs_util",
    "zns_torn_pages_vs_util",
    "zns_silent_corruptions_vs_util",
    "conv_recovery_ms_vs_journal_interval",
    "conv_replay_entries_vs_journal_interval",
    "conv_wa_vs_journal_interval",
    "conv_crash_lost_units_vs_journal_interval",
    "conv_silent_corruptions_vs_journal_interval",
)
CRASH_REQUIRED_CONFIG = ("retry_policy", "zns_zones_filled")

# bench_kv's --json is the zkv acceptance document (DESIGN.md §13): the
# YCSB mixes, the placement A/B and its ratio, the compaction-
# interference point, and the mid-compaction crash must all be present;
# no point may report a silent corruption, and lifetime placement must
# not make write amplification worse than placement-off.
KV_REQUIRED_SERIES = (
    "kv_ycsb_kiops",
    "kv_value_size_kiops",
    "kv_skew_kiops",
    "kv_wa_placement",
    "kv_wa_placement_ratio",
    "kv_interference_read_p99_us",
    "kv_crash_silent_corruptions",
    "kv_crash_recovery_ms",
    "kv_crash_wal_replayed",
)
KV_REQUIRED_CONFIG = ("profile", "records", "value_bytes", "theta")
# wa_off / wa_on: >= 1 means hot/cold placement reduced (or matched)
# write amplification; below this floor the tentpole claim is broken.
KV_MIN_PLACEMENT_RATIO = 1.0

# Required SMART counters (nvme::SmartLog): activity, the host_rejects /
# media_errors split, and the fault-model health fields.
SMART_REQUIRED_FIELDS = (
    "host_reads", "host_writes", "bytes_read", "bytes_written",
    "host_rejects", "media_errors", "read_faults", "write_faults",
    "retired_blocks", "spare_blocks_used", "spare_blocks_total",
    "media_read_retries", "zones_degraded_readonly", "zones_failed_offline",
)
SMART_RETIRED_FIELDS = ("io_errors",)  # split into the two fields above
ZONE_ENTRY_REQUIRED_FIELDS = (
    "zone", "state", "write_pointer", "cap_bytes", "retired_blocks",
)


def fail(path, msg, errors):
    errors.append(f"{path}: {msg}")


def validate_point(path, i, j, point, errors, schema_version=1):
    where = f"{path}: series[{i}].points[{j}]"
    if not isinstance(point, dict):
        return fail(where, "not an object", errors)
    if "wa" in point:
        if schema_version < 3:
            fail(where, "'wa' requires schema_version >= 3", errors)
        wa = point["wa"]
        if not isinstance(wa, (int, float)) or isinstance(wa, bool) \
                or not math.isfinite(wa) or wa < 1.0:
            fail(where, f"'wa' must be a finite number >= 1.0, got {wa!r}",
                 errors)
    if "parts" in point:
        if schema_version < 2:
            fail(where, "'parts' requires schema_version >= 2", errors)
        parts = point["parts"]
        if not isinstance(parts, list) or not parts:
            fail(where, f"'parts' must be a non-empty array, got {parts!r}",
                 errors)
        else:
            for k, v in enumerate(parts):
                if not isinstance(v, (int, float)) or isinstance(v, bool) \
                        or not math.isfinite(v):
                    fail(where, f"parts[{k}] must be a finite number, "
                                f"got {v!r}", errors)
    for key in POINT_NUMBER_FIELDS:
        v = point.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(where, f"'{key}' must be a number, got {v!r}", errors)
    samples = point.get("samples")
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
        fail(where, f"'samples' must be a non-negative int, got {samples!r}",
             errors)
    if "label" in point and not isinstance(point["label"], str):
        fail(where, "'label' must be a string", errors)
    for key in POINT_NULLABLE_FIELDS:
        if key not in point:
            fail(where, f"missing '{key}' (null when absent, never omitted)",
                 errors)
            continue
        v = point[key]
        if v is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(where, f"'{key}' must be a number or null, got {v!r}", errors)
        elif not math.isfinite(v):
            fail(where, f"'{key}' must be finite, got {v!r}", errors)


def validate_document(path, doc, errors):
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object", errors)
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string", errors)
    schema_version = doc.get("schema_version")
    if schema_version not in (1, 2, 3):
        fail(path, f"'schema_version' must be 1, 2 or 3, got "
                   f"{schema_version!r}", errors)
        schema_version = 1
    config = doc.get("config")
    if not isinstance(config, dict):
        fail(path, "'config' must be an object", errors)
    else:
        for k, v in config.items():
            if not isinstance(v, (str, int, float)) or isinstance(v, bool):
                fail(path, f"config['{k}'] must be a string or number", errors)
    meta = doc.get("meta")
    if meta is not None:
        # Environment facts (wall_ms etc.), never experiment data: numbers
        # and strings only. CI's multi-device speedup gate reads
        # meta.wall_ms; tools/normalize_json.sh strips meta before a
        # byte-for-byte diff.
        if not isinstance(meta, dict):
            fail(path, "'meta' must be an object", errors)
        else:
            for k, v in meta.items():
                if not isinstance(v, (str, int, float)) or isinstance(v, bool):
                    fail(path, f"meta['{k}'] must be a string or number",
                         errors)
    series = doc.get("series")
    if not isinstance(series, list):
        return fail(path, "'series' must be an array", errors)
    seen = set()
    for i, s in enumerate(series):
        if not isinstance(s, dict):
            fail(path, f"series[{i}] is not an object", errors)
            continue
        name = s.get("name")
        if not isinstance(name, str) or not name:
            fail(path, f"series[{i}].name must be a non-empty string", errors)
        elif name in seen:
            fail(path, f"duplicate series name '{name}'", errors)
        else:
            seen.add(name)
        if not isinstance(s.get("unit"), str):
            fail(path, f"series[{i}].unit must be a string", errors)
        points = s.get("points")
        if not isinstance(points, list):
            fail(path, f"series[{i}].points must be an array", errors)
            continue
        for j, p in enumerate(points):
            validate_point(path, i, j, p, errors, schema_version)
    if doc.get("bench") == "bench_multidev":
        validate_multidev(path, doc, errors)
    if doc.get("bench") == "bench_crash":
        validate_crash(path, doc, errors)
    if doc.get("bench") == "bench_kv":
        validate_kv(path, doc, errors)


def validate_multidev(path, doc, errors):
    """bench_multidev documents carry the striping acceptance numbers."""
    config = doc.get("config")
    if isinstance(config, dict):
        for key in MULTIDEV_REQUIRED_CONFIG:
            if key not in config:
                fail(path, f"multidev: missing config['{key}']", errors)
    by_name = {s.get("name"): s for s in doc.get("series", [])
               if isinstance(s, dict)}
    for name in MULTIDEV_REQUIRED_SERIES:
        if name not in by_name:
            fail(path, f"multidev: missing series '{name}'", errors)
    # Throughput points break down per device: len(parts) == device count.
    for name in ("multidev_append_kiops", "multidev_read_kiops"):
        s = by_name.get(name)
        if s is None:
            continue
        for p in s.get("points", []):
            if not isinstance(p, dict):
                continue
            x, parts = p.get("x"), p.get("parts")
            if not isinstance(parts, list):
                fail(path, f"multidev: {name} x={x!r} missing 'parts'",
                     errors)
            elif isinstance(x, (int, float)) and len(parts) != int(x):
                fail(path, f"multidev: {name} x={x!r} has {len(parts)} "
                           "parts (expected one per device)", errors)
    # The point of the exercise: near-linear append scaling.
    s = by_name.get("multidev_append_scaling")
    if s is not None:
        ratios = {p.get("x"): p.get("value") for p in s.get("points", [])
                  if isinstance(p, dict)}
        for ndev, minimum in MULTIDEV_MIN_APPEND_SCALING.items():
            v = ratios.get(ndev)
            if v is None:
                fail(path, f"multidev: no scaling point for {ndev} devices",
                     errors)
            elif isinstance(v, (int, float)) and v < minimum:
                fail(path, f"multidev: append scaling at {ndev} devices is "
                           f"{v} (< {minimum})", errors)


def validate_crash(path, doc, errors):
    """bench_crash documents carry the crash/recovery acceptance numbers."""
    config = doc.get("config")
    if isinstance(config, dict):
        for key in CRASH_REQUIRED_CONFIG:
            if key not in config:
                fail(path, f"crash: missing config['{key}']", errors)
    by_name = {s.get("name"): s for s in doc.get("series", [])
               if isinstance(s, dict)}
    for name in CRASH_REQUIRED_SERIES:
        if name not in by_name:
            fail(path, f"crash: missing series '{name}'", errors)

    def points(name):
        s = by_name.get(name)
        if s is None:
            return []
        return [p for p in s.get("points", []) if isinstance(p, dict)]

    # The whole point of the bench: flushed data survives byte-exact.
    for name in CRASH_REQUIRED_SERIES:
        if "silent_corruptions" not in name:
            continue
        for p in points(name):
            v = p.get("value")
            if isinstance(v, (int, float)) and v != 0:
                fail(path, f"crash: {name} x={p.get('x')!r} reports "
                           f"{v!r} silent corruption(s)", errors)
    # Recovery time is real exactly when crashes were injected: zero at
    # the crash-free baseline, strictly positive everywhere else.
    for p in points("zns_recovery_ms_vs_crashes"):
        x, v = p.get("x"), p.get("value")
        if not isinstance(x, (int, float)) or \
                not isinstance(v, (int, float)):
            continue
        if x == 0 and v != 0:
            fail(path, f"crash: recovery time {v!r} ms without a crash",
                 errors)
        elif x > 0 and v <= 0:
            fail(path, f"crash: {x:.0f} crash(es) but non-positive "
                       f"recovery time {v!r} ms", errors)
    for p in points("conv_recovery_ms_vs_journal_interval"):
        v = p.get("value")
        if isinstance(v, (int, float)) and v <= 0:
            fail(path, f"crash: conv recovery time must be > 0, got {v!r}",
                 errors)
    # Journal/checkpoint programs only ever add write amplification.
    for p in points("conv_wa_vs_journal_interval"):
        v = p.get("value")
        if isinstance(v, (int, float)) and v < 1.0:
            fail(path, f"crash: conv write amplification {v!r} < 1", errors)


def validate_kv(path, doc, errors):
    """bench_kv documents carry the zkv LSM acceptance numbers."""
    config = doc.get("config")
    if isinstance(config, dict):
        for key in KV_REQUIRED_CONFIG:
            if key not in config:
                fail(path, f"kv: missing config['{key}']", errors)
    by_name = {s.get("name"): s for s in doc.get("series", [])
               if isinstance(s, dict)}
    for name in KV_REQUIRED_SERIES:
        if name not in by_name:
            fail(path, f"kv: missing series '{name}'", errors)

    def points(name):
        s = by_name.get(name)
        if s is None:
            return []
        return [p for p in s.get("points", []) if isinstance(p, dict)]

    # WAL replay must reconstruct the store byte-exact: any silent
    # corruption classification is a hard failure.
    for p in points("kv_crash_silent_corruptions"):
        v = p.get("value")
        if isinstance(v, (int, float)) and v != 0:
            fail(path, f"kv: crash point '{p.get('label')}' reports "
                       f"{v!r} silent corruption(s)", errors)
    for p in points("kv_crash_recovery_ms"):
        v = p.get("value")
        if isinstance(v, (int, float)) and v <= 0:
            fail(path, f"kv: crash recovery time must be > 0, got {v!r}",
                 errors)
    # Placement A/B: both arms must attach a per-point wa, and the ratio
    # (wa_off / wa_on) must clear the floor — the tentpole claim.
    placement = {p.get("label"): p for p in points("kv_wa_placement")}
    for label in ("on", "off"):
        p = placement.get(label)
        if p is None:
            fail(path, f"kv: kv_wa_placement missing point '{label}'",
                 errors)
        elif "wa" not in p:
            fail(path, f"kv: kv_wa_placement '{label}' missing 'wa'", errors)
    for p in points("kv_wa_placement_ratio"):
        v = p.get("value")
        if isinstance(v, (int, float)) and v < KV_MIN_PLACEMENT_RATIO:
            fail(path, f"kv: placement WA ratio {v!r} is below the "
                       f"{KV_MIN_PLACEMENT_RATIO} floor (placement made "
                       "write amplification worse)", errors)
    # Every throughput point carries its cost: wa attached throughout.
    for name in ("kv_ycsb_kiops", "kv_value_size_kiops", "kv_skew_kiops"):
        for p in points(name):
            if "wa" not in p:
                fail(path, f"kv: {name} '{p.get('label') or p.get('x')}' "
                           "missing 'wa'", errors)


def _counter(where, obj, key, errors):
    """Fetches a required non-negative numeric counter; None on violation."""
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
        fail(where, f"'{key}' must be a non-negative number, got {v!r}",
             errors)
        return None
    return v


def validate_smart(where, smart, errors):
    if not isinstance(smart, dict):
        return fail(where, "'smart' must be an object", errors)
    for key in SMART_REQUIRED_FIELDS:
        _counter(where, smart, key, errors)
    for key in SMART_RETIRED_FIELDS:
        if key in smart:
            fail(where, f"retired field '{key}' present (split into "
                        "host_rejects/media_errors)", errors)
    used = smart.get("spare_blocks_used")
    total = smart.get("spare_blocks_total")
    if isinstance(used, (int, float)) and isinstance(total, (int, float)) \
            and used > total:
        fail(where, f"spare_blocks_used ({used}) exceeds spare_blocks_total "
                    f"({total})", errors)


def validate_zone_report(where, report, errors):
    if not isinstance(report, dict):
        return fail(where, "'zone_report' must be an object", errors)
    zones = report.get("zones")
    if not isinstance(zones, list):
        return fail(where, "'zone_report.zones' must be an array", errors)
    ro = 0
    off = 0
    for j, z in enumerate(zones):
        zwhere = f"{where}.zones[{j}]"
        if not isinstance(z, dict):
            fail(zwhere, "not an object", errors)
            continue
        for key in ZONE_ENTRY_REQUIRED_FIELDS:
            if key not in z:
                fail(zwhere, f"missing '{key}'", errors)
        state = z.get("state")
        if state == "ReadOnly":
            ro += 1
        elif state == "Offline":
            off += 1
    for key, derived in (("read_only_zones", ro), ("offline_zones", off)):
        v = _counter(where, report, key, errors)
        if v is not None and v != derived:
            fail(where, f"'{key}' is {v} but {derived} zone(s) carry that "
                        "state", errors)


def validate_logpages_document(path, doc, errors):
    """--logpages output: [{label, logpages: {smart, zone_report?, ...}}]."""
    for i, entry in enumerate(doc):
        where = f"{path}: [{i}]"
        if not isinstance(entry, dict):
            fail(where, "not an object", errors)
            continue
        if not isinstance(entry.get("label"), str) or not entry["label"]:
            fail(where, "'label' must be a non-empty string", errors)
        pages = entry.get("logpages")
        if not isinstance(pages, dict):
            fail(where, "'logpages' must be an object", errors)
            continue
        if "smart" not in pages:
            fail(where, "missing 'smart' log page", errors)
        else:
            validate_smart(f"{where}.smart", pages["smart"], errors)
        if "zone_report" in pages:
            validate_zone_report(f"{where}.zone_report",
                                 pages["zone_report"], errors)


# Timeline records (DESIGN.md §10): type -> required numeric fields.
# Every record additionally carries "t" (virtual ns) and "tb" (testbed
# label, string).
TIMELINE_REQUIRED_NUMBERS = {
    "sample": ("interval_ns",),
    "zone_state": ("lane", "zone"),
    "die_busy": ("dur", "lane", "die", "ops", "busy_ns"),
    "window": ("dur", "lane"),
}
TIMELINE_HIST_FIELDS = ("count", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
                        "max_ns")
ZONE_STATES = ("Empty", "ImplicitlyOpened", "ExplicitlyOpened", "Closed",
               "Full", "ReadOnly", "Offline")


def validate_timeline_record(where, rec, errors):
    rtype = rec.get("type")
    if rtype not in TIMELINE_REQUIRED_NUMBERS:
        return fail(where, f"unknown timeline record type {rtype!r}", errors)
    _counter(where, rec, "t", errors)
    if not isinstance(rec.get("tb"), str):
        fail(where, f"'tb' must be a string, got {rec.get('tb')!r}", errors)
    for key in TIMELINE_REQUIRED_NUMBERS[rtype]:
        _counter(where, rec, key, errors)
    if rtype == "sample":
        for key in ("counters", "gauges"):
            m = rec.get(key)
            if not isinstance(m, dict):
                fail(where, f"'{key}' must be an object", errors)
                continue
            for k, v in m.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    fail(where, f"{key}['{k}'] must be a number", errors)
        hists = rec.get("hist")
        if not isinstance(hists, dict):
            fail(where, "'hist' must be an object", errors)
        else:
            for name, h in hists.items():
                hwhere = f"{where}: hist['{name}']"
                if not isinstance(h, dict):
                    fail(hwhere, "not an object", errors)
                    continue
                for key in TIMELINE_HIST_FIELDS:
                    _counter(hwhere, h, key, errors)
    elif rtype == "zone_state":
        for key in ("from", "to"):
            if rec.get(key) not in ZONE_STATES:
                fail(where, f"'{key}' must be a zone state name, got "
                            f"{rec.get(key)!r}", errors)
    elif rtype == "window":
        if not isinstance(rec.get("kind"), str) or not rec["kind"]:
            fail(where, "'kind' must be a non-empty string", errors)


def validate_timeline_file(path, lines, errors):
    """--timeline output: one §10 record per line."""
    records = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(where, str(e), errors)
            continue
        if not isinstance(rec, dict):
            fail(where, "not an object", errors)
            continue
        records += 1
        validate_timeline_record(where, rec, errors)
    if records == 0:
        fail(path, "no timeline records", errors)
    return records


def looks_like_timeline(text):
    """JSONL whose first non-blank line is an object with a "type" key."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            first = json.loads(line)
        except json.JSONDecodeError:
            return False
        return isinstance(first, dict) and "type" in first
    return False


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    errors = []
    for path in argv[1:]:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            errors.append(f"{path}: {e}")
            continue
        if looks_like_timeline(text):
            before = len(errors)
            n = validate_timeline_file(path, text.splitlines(), errors)
            if len(errors) == before:
                print(f"{path}: ok (timeline, {n} record(s))")
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            errors.append(f"{path}: {e}")
            continue
        before = len(errors)
        if isinstance(doc, list):
            validate_logpages_document(path, doc, errors)
            if len(errors) == before:
                print(f"{path}: ok (log pages, {len(doc)} testbed(s))")
            continue
        validate_document(path, doc, errors)
        if len(errors) == before:
            n_series = len(doc.get("series", []))
            n_points = sum(len(s.get("points", []))
                           for s in doc.get("series", [])
                           if isinstance(s, dict))
            print(f"{path}: ok ({doc.get('bench')}, {n_series} series, "
                  f"{n_points} points)")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
