#!/usr/bin/env python3
"""Host-time benchmark of the simulator (see hostbench/README.md).

Run from the repository root:

    python3 hostbench/run.py --workload fsdp_thermal --seed 1 \
        --seconds 10 --trace 0

Builds hostbench/ (and the simulator sources under src/) with CMake in
Release mode into $CARGO_TARGET_DIR/hostbench (default
.bench_build/hostbench), runs the workload in fresh processes, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics
(wall_s, peak_rss_mb, setup_s), --trace 1 the per-layer ones.

    python3 hostbench/run.py --self-test

builds, runs the binary's self-test, then a short run of each mode and
checks the printed JSON against BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
READY = "hostbench-ready-ns "
SPEED = "hostbench-speed "
# Fresh processes whose set-up is timed; the median is setup_s.
SETUP_SAMPLES = 3
# Every invocation must end well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build the hostbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "hostbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hostbench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return build_dir / "hostbench", target_dir


def spawn(binary, args):
    """Run the binary once; returns (stdout lines, set-up seconds).

    Set-up runs from process start to the binary's ready mark, scaled to
    the reference host speed the binary measures right after it.
    """
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"exit code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    marks = {}
    for line in lines:
        for mark in (READY, SPEED):
            if line.startswith(mark):
                marks[mark] = line[len(mark):]
    setup_s = None
    if READY in marks and SPEED in marks:
        setup_s = ((int(marks[READY]) - start_ns) / 1e9 *
                   float(marks[SPEED]))
    return [l for l in lines
            if not l.startswith(READY) and not l.startswith(SPEED)], setup_s


def run(binary, target_dir, workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed),
              "--ref-dir", str(BENCH_DIR / "reference"),
              "--out-dir", str(target_dir / "hostbench_reports")]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, s = spawn(binary, common + ["--setup-only"])
            setups.append(s)
    lines, s = spawn(binary, common + ["--seconds", str(seconds),
                                       "--trace", "1" if trace else "0"])
    setups.append(s)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the binary printed no result line")
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        lines.insert(-1, "setup_s samples (process start to first timed "
                     "pass, at reference speed): " +
                     ", ".join(f"{x:.4f}" for x in setups))
    return lines[:-1], result


def self_test(binary, target_dir):
    proc = subprocess.run([str(binary), "--self-test",
                           "--ref-dir", str(BENCH_DIR / "reference"),
                           "--out-dir", str(target_dir / "hostbench_reports")],
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("binary self-test failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        _, result = run(binary, target_dir, "observed_recovery", 5, 1, trace)
        want = {m["name"] for m in spec[key]}
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1
              and set(result["metrics"]) == want)
        print(f"  {'ok  ' if ok else 'FAIL'}  --trace {int(trace)} prints "
              f"exactly the {key} metrics, correct")
        if not ok:
            print(json.dumps(result), file=sys.stderr)
            fail("self-test failed")
    print("run.py self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    binary, target_dir = build()
    if args.self_test:
        self_test(binary, target_dir)
        return
    if not args.workload:
        fail("--workload is required", 2)
    lines, result = run(binary, target_dir, args.workload, args.seed,
                        args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
