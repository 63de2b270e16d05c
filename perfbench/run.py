#!/usr/bin/env python3
"""The lshclust benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload fit-numeric --seed 1 --seconds 20 --trace 0

builds perfbench/ (which builds the library from the repository's own
CMakeLists.txt) into .bench_build/, runs the workload, stamps provenance,
saves the full record under .bench_build/records/ (or --record-dir) and
prints, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

compares two directories of saved records (see README.md).

    python3 perfbench/run.py --calibrate --seed 1

prints serve-live's unpaced ingest throughput, from which that
workload's writer pace is set (see README.md).
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cmake", "lshclust_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark binary; a no-op when current."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/; run from a full checkout")
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    steps = [["cmake", "--build", cmake_dir, "--target", "lshclust_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    # Once configured, the build step re-runs CMake itself when a build
    # file changed.
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(directory, name) for name in files
                      if not name.endswith(".pyc")]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(flags):
    """Runs the benchmark binary with `flags`; returns its JSON record."""
    out_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY] + flags + ["--out-dir=" + out_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("workload exited with code %d" % done.returncode)
    return json.loads(lines[-1])


def calibrate(args):
    """Prints serve-live's unpaced IngestBatch throughput in rows/s: the
    measurement that workload's writer pace is derived from."""
    build()
    record = run_binary(["--workload=serve-live", "--seed=%d" % args.seed,
                         "--smoke=%d" % int(args.smoke), "--calibrate=1"])
    if record["failed"]:
        fail("calibration failed: " + "; ".join(record["failures"]))
    print(json.dumps({"seed": args.seed, "ingest_rows_per_s":
                      record["info"]["ingest_rows_per_s"]}))


def run_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r; expected one of %s" % (args.workload, names))
    build()
    record = run_binary(["--workload=" + args.workload,
                         "--seed=%d" % args.seed,
                         "--seconds=%g" % args.seconds,
                         "--trace=%d" % args.trace,
                         "--smoke=%d" % int(args.smoke)])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = record["metrics"].get(metric["name"])
        if value is None or value["value"] is None:
            fail("workload did not report %s" % metric["name"])
        metrics[metric["name"]] = {"value": value["value"],
                                   "unit": metric["unit"]}

    provenance = dict(record["info"])
    provenance.update({
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": bool(args.smoke),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    record["provenance"] = provenance
    record_dir = args.record_dir or os.path.join(BUILD_DIR, "records")
    os.makedirs(record_dir, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                           time.time_ns())
    with open(os.path.join(record_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if record["failures"]:
        print("failed checks: " + "; ".join(record["failures"]))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


# ----------------------------------------------------------------- compare --

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_records(directory):
    """(workload, seed) -> list of end-to-end metric dicts (untraced runs)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        p = record["provenance"]
        if p["trace"]:
            continue
        values = {k: v["value"] for k, v in record["metrics"].items()}
        values["__failed"] = record["failed"]
        runs.setdefault(p["workload"], {}).setdefault(p["seed"], []).append(values)
    return runs


def verdict(parent, change, better, bound):
    """Applies the benchmark's bound and the pairing rule to one
    (workload, metric). `parent` / `change` are lists of (seed, value)."""
    sign = 1.0 if better == "lower" else -1.0
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    change_by_seed = dict(change)
    pairs = [(v, change_by_seed[s]) for s, v in parent if s in change_by_seed]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    all_worse = all(sign * (c - p) > 0 for c in c_values for p in p_values)
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            sign * (p_med - c_med) > (p_q3 - p_q1))
    if spread > bound:
        label = ("better" if all_better else
                 "worse" if all_worse and worse_by > bound else "unresolved")
    elif gain:
        label = "better"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "no worse"
    return label, p_med, c_med, worse_by, spread, wins, len(pairs)


def compare(parent_dir, change_dir, spec):
    parent = load_records(parent_dir)
    change = load_records(change_dir)
    rows = []
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for runs in (parent[workload], change[workload]):
                sides.append([(seed, statistics.median(r[name] for r in rs))
                              for seed, rs in sorted(runs.items())
                              if all(name in r for r in rs)])
            if not sides[0] or not sides[1]:
                continue
            label, p_med, c_med, worse_by, spread, wins, pairs = verdict(
                sides[0], sides[1], metric["better"], metric["bound"])
            any_worse |= label == "worse"
            rows.append((workload, name, label, p_med, c_med, worse_by,
                         spread, metric["bound"], "%d/%d" % (wins, pairs)))
        failed = [sum(r["__failed"] for rs in runs.values() for r in rs)
                  for runs in (parent[workload], change[workload])]
        rows.append((workload, "failed_ops", "worse" if failed[1] > failed[0]
                     else "no worse", failed[0], failed[1], 0, 0, 0, "-"))
        any_worse |= failed[1] > failed[0]
    header = ("workload", "metric", "verdict", "parent_med", "change_med",
              "worse_by", "parent_spread", "bound", "wins")
    print("%-16s %-20s %-10s %12s %12s %9s %13s %6s %6s" % header)
    for r in rows:
        print("%-16s %-20s %-10s %12.6g %12.6g %+8.1f%% %12.1f%% %5.0f%% %6s" %
              (r[0], r[1], r[2], r[3], r[4], 100 * r[5], 100 * r[6],
               100 * r[7], r[8]))
    return 1 if any_worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long inputs, same output checks")
    parser.add_argument("--record-dir",
                        help="where to save the full record of this run")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of saved records")
    parser.add_argument("--calibrate", action="store_true",
                        help="print serve-live's unpaced ingest throughput")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(compare(args.compare[0], args.compare[1], spec))
    if args.calibrate:
        calibrate(args)
        return
    if not args.workload:
        fail("--workload is required")
    run_workload(args, spec)


if __name__ == "__main__":
    main()
