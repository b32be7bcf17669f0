#!/usr/bin/env python3
"""End-to-end exploration benchmark: build, run, check.

Run from the repository root.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in one fresh process. Prints "workload metric value
      unit" lines and, last, one JSON object with the keys correct,
      attempted, failed and metrics (end-to-end metrics untraced,
      per-layer metrics traced).

  python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace 0|1]
      Every workload, each in its own process. Also writes the results
      with host facts (nproc, CPU model, threads, commit) to --out.

  python3 bench/e2e/run.py --smoke
      Every workload at a smoke budget: all checks pass, every metric
      BENCHMARK.json names is emitted, one seed repeats its digest and
      another changes it, and mcf-remote's digest equals mcf-detailed's.

The program is built from source into .bench_build/e2e first (cmake,
Release). Exit status is nonzero when a build, a run or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["mcf-detailed", "mcf-simpoint", "gzip-active", "mcf-remote"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                      "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_explore",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return BUILD / "e2e_explore"


def clean_env():
    """The library reads DSE_* knobs (threads, journal, faults, metrics,
    workers); a run must not inherit any of them."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DSE_")}


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """One workload in a fresh process; returns (stdout lines, result)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scratch={BUILD / 'scratch'}"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={traces / f'{workload}-seed{seed}.json'}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=clean_env(), timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {proc.returncode}")
    return lines, json.loads(lines[-1])


def info(lines, key):
    """A key=value field from the program's '#' info lines."""
    for line in lines:
        if line.startswith("#"):
            for field in line[1:].split():
                k, _, v = field.partition("=")
                if k == key:
                    return v
    return None


def host_facts(lines):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "threads": int(info(lines, "threads") or 0), "commit": commit}


def smoke(binary):
    """The smoke test; returns the list of failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {False: {m["name"] for m in spec["end_to_end"]},
             True: {m["name"] for m in spec["per_layer"]}}
    failures = []
    digests = {}
    for w in WORKLOADS:
        for seed, trace in ((99, False), (99, True), (100, False)):
            lines, res = run_workload(binary, w, seed, 0, trace, smoke=True)
            tag = f"{w} seed={seed} trace={int(trace)}"
            if not res["correct"]:
                failures.append(f"{tag}: a check failed")
            missing = names[trace] - set(res["metrics"])
            if missing:
                failures.append(f"{tag}: missing {sorted(missing)}")
            digests[(w, seed, trace)] = info(lines, "digest")
        if digests[(w, 99, False)] != digests[(w, 99, True)]:
            failures.append(f"{w}: seed 99 gave two digests")
        if digests[(w, 99, False)] == digests[(w, 100, False)]:
            failures.append(f"{w}: seeds 99 and 100 gave one digest")
    if digests[("mcf-remote", 99, False)] != digests[("mcf-detailed", 99, False)]:
        failures.append("mcf-remote digest differs from mcf-detailed")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BUILD / "results.json")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", type=Path,
                    help="use this e2e_explore instead of building one")
    args = ap.parse_args()

    try:
        binary = args.binary or build()
        if args.smoke:
            failures = smoke(binary)
            for f in failures:
                log(f"smoke: {f}")
            print("smoke: " + ("FAILED" if failures else "ok"))
            return 1 if failures else 0
        if args.workload:
            lines, res = run_workload(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
            print("\n".join(lines))
            return 0
        results, ok = {}, True
        for w in WORKLOADS:
            lines, res = run_workload(binary, w, args.seed, args.seconds,
                                      args.trace)
            print("\n".join(line for line in lines[:-1]
                            if not line.startswith("#")), flush=True)
            results[w] = {"correct": res["correct"],
                          "digest": info(lines, "digest"),
                          "metrics": res["metrics"]}
            ok = ok and res["correct"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"host": host_facts(lines), "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=2) + "\n")
        log(f"results written to {args.out}")
        return 0 if ok else 1
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
