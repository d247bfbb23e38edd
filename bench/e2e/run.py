#!/usr/bin/env python3
"""Builds and runs the repo's end-to-end benchmark for one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e with CMake (Release) into $CARGO_TARGET_DIR/e2e, default
.bench_build/e2e under the repo root, runs one workload of pelican_bench,
and prints as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1), each {"value": v, "unit": u}. Build
output and the benchmark's own table go to stderr. The full result, with
its fingerprint and every check, stays in <build>/results/<workload>.json.

Exits nonzero when the build fails, when a named metric is missing, or
when a correctness check fails (the result line is still printed then,
with "correct": false).

    python3 bench/e2e/run.py --smoke --binary PATH --out DIR

is the ctest: every workload for about a second, untraced and traced; it
fails when a metric named in BENCHMARK.json is missing or a check fails.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2e"


def build(directory):
    """Configures and builds pelican_bench (both no-ops once up to date);
    returns the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(directory),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(directory), "-j", jobs,
         "--target", "pelican_bench"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return directory / "pelican_bench"


def become_subreaper():
    """Orphaned grandchildren (engine processes) re-parent to this process,
    so they can be killed and reaped if the benchmark dies early."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_everything(group):
    """Kills what is left of the benchmark's process group and waits for
    every child of this process to end."""
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def run_workload(binary, workload, seed, seconds, traced, out, smoke=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / f"{workload}.json"
    if result_path.exists():
        result_path.unlink()
    # A relative --out keeps the engines' socket paths short.
    try:
        out_arg = os.path.relpath(out, ROOT)
    except ValueError:
        out_arg = str(out)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--out", out_arg]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        code = -1
    finally:
        reap_everything(proc.pid)
    if not result_path.exists():
        return code, None
    with open(result_path) as fh:
        return code, json.load(fh)


def select_metrics(result, wanted):
    """{name: {"value", "unit"}} for every metric BENCHMARK.json names;
    raises when one is missing or carries another unit."""
    rows = {row[0]: (row[1], row[2]) for row in result["rows"]}
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in rows:
            raise KeyError(f"metric {name} missing from the result")
        value, unit = rows[name]
        if unit != spec["unit"]:
            raise ValueError(f"metric {name} has unit {unit}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main_run(args):
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; one of {names}")
        return 2
    become_subreaper()
    directory = build_dir()
    binary = build(directory)
    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace == 1,
                                directory / "results")
    if result is None:
        log(f"{args.workload} wrote no result (exit code {code})")
        return 1
    wanted = benchmark["per_layer" if args.trace == 1 else "end_to_end"]
    metrics = select_metrics(result, wanted)
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["ops_attempted"]),
                      "failed": int(result["ops_failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main_smoke(args):
    benchmark = load_benchmark()
    become_subreaper()
    failures = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for traced in (False, True):
            label = f"{workload}{' traced' if traced else ''}"
            code, result = run_workload(Path(args.binary), workload, 1, 1.0,
                                        traced, Path(args.out), smoke=True)
            if result is None or code != 0 or not result["correct"]:
                failures.append(f"{label}: incorrect or failed (exit {code})")
                continue
            try:
                select_metrics(result, benchmark["end_to_end"])
                if traced:
                    select_metrics(result, benchmark["per_layer"])
            except (KeyError, ValueError) as error:
                failures.append(f"{label}: {error}")
                continue
            log(f"{label}: ok")
    for failure in failures:
        log(f"FAIL {failure}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="pelican_bench to smoke-test")
    parser.add_argument("--out", help="results directory of the smoke test")
    args = parser.parse_args()
    try:
        if args.smoke:
            if not args.binary or not args.out:
                parser.error("--smoke needs --binary and --out")
            return main_smoke(args)
        if not args.workload:
            parser.error("--workload is required")
        return main_run(args)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
