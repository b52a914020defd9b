#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator: build, run, check, report.

    python3 perfbench/run.py --workload conv-gc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload conv-gc --seed 1 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-oracle      # after a deliberate change

Every run first builds perfbench (a Release build of ../src plus the
benchmark, see CMakeLists.txt) into .bench_build, or into
$CARGO_TARGET_DIR when that is set. The binary's simulated (virtual-time)
outputs are then compared byte for byte with oracle/<workload>.json; any
difference, or any ladder rung that fails to replay its recorded stream,
makes the run incorrect and the exit code non-zero.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics (host time, telemetry off); --trace 1 the per-layer
metrics of the traced ladder run.
"""
import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["conv-gc", "zns-mixed", "kv-ycsb", "stripe4"]
INPUT_SEEDS = 20  # must match kInputSeeds in src/main.cc
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds; returns the binary path or None.

    Configuring every time is cheap once the build is up to date, and it
    fails when the simulator sources are missing or the build directory
    belongs to another source tree.
    """
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    return r.returncode, r.stdout.splitlines()


def parse(lines):
    """Splits the binary's line protocol into its parts."""
    out = {"virtual": [], "result": None}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "virtual":
            tag, seed, body = rest.split(" ", 2)
            out["virtual"].append((tag, seed, json.loads(body)))
        elif kind == "result":
            out["result"] = json.loads(rest)
    return out


def oracle_path(workload):
    return os.path.join(HERE, "oracle", workload + ".json")


def load_oracle(workload):
    try:
        with open(oracle_path(workload)) as f:
            return json.load(f)["seeds"]
    except (OSError, ValueError, KeyError):
        return {}


def check_outputs(workload, drives):
    """True when every reported drive matches the recorded oracle."""
    oracle = load_oracle(workload)
    ok = bool(drives)
    for tag, seed, got in drives:
        want = oracle.get(seed)
        if want is None:
            log(f"perfbench: no oracle entry for {workload} input seed {seed}")
            ok = False
        elif got != want:
            diff = sorted(k for k in set(got) | set(want)
                          if got.get(k) != want.get(k))
            log(f"perfbench: {workload} drive '{tag}' differs from the "
                f"oracle in {diff[:8]}")
            ok = False
    return ok


def record_oracle(binary, workloads):
    """Re-records the reference outputs of every input seed."""
    for w in workloads:
        def one(seed, w=w):
            code, lines = run_binary(binary, ["--workload", w, "--seed",
                                              str(seed), "--reference"])
            if code != 0:
                raise SystemExit(f"reference run failed: {w} seed {seed}")
            return str(seed), parse(lines)["virtual"][0][2]
        with ThreadPoolExecutor(max_workers=3) as pool:
            seeds = dict(pool.map(one, range(INPUT_SEEDS)))
        with open(oracle_path(w), "w") as f:
            json.dump({"workload": w, "seeds": seeds}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
        log(f"recorded {oracle_path(w)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-oracle", action="store_true")
    a = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if a.record_oracle:
        record_oracle(binary, [a.workload] if a.workload else WORKLOADS)
        return 0
    if a.selftest:
        code, lines = run_binary(binary, ["--selftest"])
        print("\n".join(l for l in lines if not l.startswith("virtual ")))
        drives = parse(lines)["virtual"]
        ok = code == 0
        for w in WORKLOADS:
            mine = [v for v in drives if v[0].startswith(w + ":")]
            ok = check_outputs(w, mine) and ok
        print("selftest " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if a.workload is None:
        ap.error("--workload is required")

    code, lines = run_binary(binary, [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds",
        str(a.seconds), "--trace", str(a.trace)])
    parsed = parse(lines)
    for line in lines:
        if not line.startswith(("virtual ", "result ")):
            print(line)
    res = parsed["result"]
    if code != 0 or res is None:
        log(f"perfbench: benchmark binary exited with code {code}")
        return 1
    correct = check_outputs(a.workload, parsed["virtual"])
    if res["replay_mismatches"] != 0:
        log(f"perfbench: {res['replay_mismatches']} replayed completions "
            "differ from the recorded stream")
        correct = False
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
