#!/usr/bin/env python3
"""Check (or record) every bench's stdout against its committed golden.

The simulator's spec is that each bench prints the same bytes at
default flags: bench/golden/<bench>.txt holds them. This script runs
each bench binary from a build tree with no arguments, in a scratch
working directory, and compares its stdout with the golden byte for
byte. Only host-timed output is masked before the comparison:
bench_backend_xval's wall-time/speedup line and its speedup floor note,
whose presence depends on the host.

Usage:
  golden.py --check  [--build DIR] [-j N] [BENCH ...]
  golden.py --record [--build DIR] [-j N] [BENCH ...]

With no BENCH, every bench/bench_*.cc program is run. --record rewrites
the goldens from the binaries in --build (default: build/); a
deliberate model change re-records and the golden diff lists the rows
that moved.

Exit status: 0 every bench matches (or was recorded), 1 a bench's
stdout differs or it exited nonzero, 2 usage error or missing binary
or golden.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_SRC = REPO / "bench"
GOLDEN_DIR = BENCH_SRC / "golden"

# bench -> (pattern, replacement) applied to its stdout bytes.
MASKS = {
    "bench_backend_xval": (
        (re.compile(rb"^DES wall: .*$", re.M), b"DES wall: <host time>"),
        (re.compile(rb"^note: speedup below .*\n", re.M), b""),
    ),
}
DIFF_LINES = 40


def all_benches() -> list[str]:
    return sorted(p.stem for p in BENCH_SRC.glob("bench_*.cc")
                  if p.stem != "bench_util")


def masked(bench: str, out: bytes) -> bytes:
    for pattern, replacement in MASKS.get(bench, ()):
        out = pattern.sub(replacement, out)
    return out


def run_bench(binary: Path) -> tuple[int, bytes, str]:
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        r = subprocess.run([str(binary)], cwd=cwd, capture_output=True)
    return (r.returncode, masked(binary.name, r.stdout),
            r.stderr.decode(errors="replace"))


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="golden.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--record", action="store_true")
    ap.add_argument("--build", default=str(REPO / "build"),
                    help="build tree holding bench/<bench> binaries")
    ap.add_argument("-j", type=int, default=1, metavar="N",
                    help="benches run at once (default 1)")
    ap.add_argument("benches", nargs="*", metavar="BENCH")
    args = ap.parse_args()

    known = all_benches()
    benches = args.benches or known
    unknown = sorted(set(benches) - set(known))
    if unknown:
        print(f"golden: unknown bench(es): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    build = Path(args.build).resolve()
    binaries = {b: build / "bench" / b for b in benches}
    missing = [str(p) for p in binaries.values()
               if not os.access(p, os.X_OK)]
    if args.check:
        missing += [str(GOLDEN_DIR / f"{b}.txt") for b in benches
                    if not (GOLDEN_DIR / f"{b}.txt").is_file()]
    if missing:
        print("golden: missing:\n  " + "\n  ".join(missing),
              file=sys.stderr)
        return 2
    if args.j < 1:
        print("golden: -j must be at least 1", file=sys.stderr)
        return 2

    with ThreadPoolExecutor(max_workers=args.j) as pool:
        runs = dict(zip(benches, pool.map(run_bench, binaries.values())))

    failed = []
    for bench, (rc, out, err) in runs.items():
        golden = GOLDEN_DIR / f"{bench}.txt"
        if rc != 0:
            print(f"{bench}: exited {rc}\n{err}", file=sys.stderr)
            failed.append(bench)
        elif args.record:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden.write_bytes(out)
            print(f"{bench}: recorded {len(out)} bytes")
        elif out != golden.read_bytes():
            diff = list(difflib.unified_diff(
                golden.read_text(errors="replace").splitlines(),
                out.decode(errors="replace").splitlines(),
                f"golden/{bench}.txt", f"{bench} stdout", lineterm=""))
            print("\n".join(diff[:DIFF_LINES]))
            if len(diff) > DIFF_LINES:
                print(f"... {len(diff) - DIFF_LINES} more diff lines")
            failed.append(bench)
        else:
            print(f"{bench}: ok")
    if failed:
        print(f"golden: {len(failed)} of {len(benches)} bench(es) "
              f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
