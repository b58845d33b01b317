#!/usr/bin/env python3
"""Builds adafl_bench from source and runs one workload of the benchmark.

    python3 bench/e2e/run.py --workload fleet_1k --seed 7 --seconds 20 --trace 0

Run from the repository root. The build lands in $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e). The last line printed is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).

    python3 bench/e2e/run.py --smoke [--binary path/to/adafl_bench]

runs every workload at smoke size, traced, and checks the correctness
verdicts, the tier/flat and sim/udp weight agreement, and that every
metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2e"


def build():
    """Configures (once) and builds adafl_bench; returns the binary path."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "adafl_bench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return bdir / "adafl_bench"


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary, echoing its report to stderr; returns (code, text)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    sys.stderr.write(proc.stdout)
    return proc.returncode, proc.stdout


def run_workload(opts):
    spec = benchmark_spec()
    names = [m["name"] for m in
             spec["per_layer" if opts.trace else "end_to_end"]]
    binary = build()
    tag = f"{opts.workload}-s{opts.seed}-t{opts.trace}"
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{tag}.json"
    if out.exists():
        out.unlink()
    args = [f"--workload={opts.workload}", f"--seed={opts.seed}",
            f"--seconds={opts.seconds}", f"--out={out}"]
    if opts.trace:
        args.append(f"--trace={build_dir() / 'traces' / tag}")
    code, _ = run_binary(binary, args)
    if not out.exists():
        log(f"run.py: adafl_bench exited {code} without results")
        return 1
    with open(out) as f:
        res = json.load(f)[0]
    metrics = {}
    missing = []
    for name in names:
        if name in res["metrics"]:
            metrics[name] = res["metrics"][name]
        else:
            missing.append(name)
    if missing:
        log(f"run.py: metrics missing from the run: {missing}")
    # An invalid run (the load generator set the pace) still produced
    # correct outputs; it is flagged, not failed, so that a faster server
    # is never reported as a broken one. compare.py rejects invalid runs.
    if not res["valid"]:
        log("run.py: invalid measurement: a driver thread was busier than "
            "the load budget allows (see gen.busy_share)")
    correct = bool(res["correct"] and not missing and code == 0)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def smoke(opts):
    spec = benchmark_spec()
    binary = Path(opts.binary) if opts.binary else build()
    work = binary.parent / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "results.json"
    code, text = run_binary(binary, ["--workload=all", "--smoke",
                                     f"--seed={opts.seed}", f"--out={out}",
                                     f"--trace={work / 'traces'}"], timeout=120)
    problems = []
    if code != 0:
        problems.append(f"adafl_bench exited {code}")
    results = {}
    if out.exists():
        with open(out) as f:
            results = {r["workload"]: r for r in json.load(f)}
    printed = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4:
            printed.add((parts[0], parts[1], parts[3]))
    for w in [x["name"] for x in spec["workloads"]]:
        r = results.get(w)
        if r is None:
            problems.append(f"{w}: no result")
            continue
        if not r["correct"]:
            problems.append(f"{w}: incorrect: {r['notes']}")
        for m in spec["end_to_end"] + spec["per_layer"]:
            if (w, m["name"], m["unit"]) not in printed:
                problems.append(f"{w}: {m['name']} [{m['unit']}] not printed")

    def crc(w):
        for n in results.get(w, {}).get("notes", []):
            if n.startswith("weights_crc32="):
                return n.split("=", 1)[1]
        return None

    for a, b in (("fleet_1k", "tier_1k"), ("sim_cnn", "lossy_udp")):
        if crc(a) is None or crc(a) != crc(b):
            problems.append(f"weights of {a} ({crc(a)}) != {b} ({crc(b)})")
    for p in problems:
        log("smoke: " + p)
    log("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="prebuilt adafl_bench (--smoke only)")
    opts = ap.parse_args()
    try:
        if opts.smoke:
            return smoke(opts)
        if not opts.workload:
            ap.error("--workload is required")
        return run_workload(opts)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
