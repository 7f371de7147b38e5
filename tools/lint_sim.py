#!/usr/bin/env python3
"""Repo-specific lint for the simulator's determinism and unit contracts.

Three rule families, all scoped to the library tree (src/):

1. Determinism hazards. The simulator promises "same seed -> byte
   identical telemetry"; any ambient-entropy or wall-clock source in
   library code silently breaks that contract. Banned in src/:
   rand(), std::random_device, std::chrono::system_clock /
   steady_clock, time(NULL)/time(nullptr), and getenv (config must
   flow through typed options structs, not the environment).

2. iostream in library code. Library code must not write to std
   streams (output belongs to the example/bench binaries and the CSV/
   trace writers); <iostream> also injects static init order issues.

3. Raw-double unit leaks in public physics headers. Parameters named
   *_w/_j/_c/_bps/_s holding plain double in src/hw, src/net,
   src/coll, src/scale, src/telemetry headers defeat the quantity
   type layer
   (common/quantity.hh); such values must be typed Watts/Joules/
   Celsius/BytesPerSec/Seconds. Timestamps on the simulator clock are
   the sanctioned exception and live in the allowlist.

4. Hot-path allocation hazards. The event kernel and flow solver
   (src/sim/, src/net/) are the per-event hot path; std::function
   (type-erased heap captures) and std::make_shared (per-event
   refcounted records) both cost an allocation per use and are what
   the zero-allocation overhaul removed. New uses are banned; the
   sanctioned exception (FlowNetwork's traffic sink, set once per
   run) lives in the allowlist.
   src/obs/ is held to the same standard: metric increments sit on
   instrumented hot paths.

5. Metric increment paths must not allocate. src/obs/ headers hold
   the inline Counter/Gauge/Histogram increment paths; any
   allocation-prone construct there (new, make_shared/make_unique,
   push_back/emplace_back, resize/reserve, std::function) would put
   a heap call behind every instrumented event. Declarations belong
   in the headers, allocating machinery in the .cc files (which may
   allocate freely: registration and dumping run once per run).

Sanctioned exceptions go in tools/lint_allowlist.txt, one per line:
    <path-substring>:<line-substring>
A finding is suppressed when its path contains <path-substring> and
its source line contains <line-substring>. Lines starting with '#'
and blank lines are ignored. --check-allowlist additionally fails
when an entry no longer suppresses anything, so suppressions cannot
outlive the code they excuse.

Exit status: 0 clean, 1 findings (or stale allowlist), 2 usage/IO
error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "lint_allowlist.txt"

CXX_SUFFIXES = {".hh", ".h", ".cc", ".cpp", ".hpp"}

# (rule-id, compiled regex, message) applied to every src/ line.
DETERMINISM_RULES = [
    ("rand", re.compile(r"(?<![\w:])rand\s*\("),
     "rand() is ambient entropy; use common/rng.hh with an explicit seed"),
    ("random-device", re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; seed common/rng.hh explicitly"),
    ("wall-clock", re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock time breaks replay; use the simulator clock"),
    ("time-null", re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time(NULL) is ambient entropy; use the simulator clock"),
    ("getenv", re.compile(r"\bgetenv\s*\("),
     "environment lookups hide config; pass options structs instead"),
]

IOSTREAM_RULE = re.compile(r'#\s*include\s*<(iostream|ostream|istream)>')

# double parameters whose names carry a unit suffix the quantity layer
# owns: _w(atts) _j(oules) _c(elsius) _bps _s(econds).
RAW_DOUBLE_PARAM = re.compile(
    r"\bdouble\s+\w+_(w|j|c|bps|s)\s*[,)=]")

PHYSICS_HEADER_DIRS = ("src/hw/", "src/net/", "src/coll/",
                       "src/scale/", "src/telemetry/")

# (rule-id, compiled regex, message) applied to hot-path dirs only.
HOT_PATH_RULES = [
    ("std-function", re.compile(r"\bstd\s*::\s*function\b"),
     "std::function heap-allocates captured state on the event hot "
     "path; use sim::EventFn (or a concrete callable type)"),
    ("make-shared", re.compile(r"\bmake_shared\b"),
     "per-event shared_ptr records defeat the slab allocator; use the "
     "pooled event/flow slabs"),
]

HOT_PATH_DIRS = ("src/sim/", "src/net/", "src/obs/")

# Allocation-prone constructs banned from src/obs/ headers (the inline
# metric increment paths). The .cc files may allocate: registration
# and dumping run once per run, outside the event loop.
OBS_HEADER_ALLOC = re.compile(
    r"\bnew\b|\bmake_shared\b|\bmake_unique\b|\bpush_back\b"
    r"|\bemplace_back\b|\bresize\s*\(|\breserve\s*\("
    r"|\bstd\s*::\s*function\b")

OBS_HEADER_DIR = "src/obs/"


class Allowlist:
    """Suppression entries plus per-entry hit counts for staleness."""

    def __init__(self, path: Path):
        self.entries: list[tuple[str, str]] = []
        self.hits: dict[tuple[str, str], int] = {}
        if not path.exists():
            return
        for raw in path.read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                print(f"lint_sim: malformed allowlist entry: {line!r}",
                      file=sys.stderr)
                sys.exit(2)
            path_sub, _, line_sub = line.partition(":")
            self.entries.append((path_sub, line_sub))
            self.hits[(path_sub, line_sub)] = 0

    def allowed(self, rel: str, text: str) -> bool:
        for p, s in self.entries:
            if p in rel and s in text:
                self.hits[(p, s)] += 1
                return True
        return False

    def stale(self) -> list[str]:
        return [f"{p}:{s}" for (p, s), n in self.hits.items() if n == 0]


def strip_comments(line: str, in_block: bool = False) -> tuple[str, bool]:
    """Return @p line with // and /* */ comments removed, plus the
    block-comment state carried into the next line.

    String- and char-literal aware: `//` or `/*` inside a literal (e.g.
    a URL in an error message) is content, not a comment, so the scan
    tracks quote state and escapes instead of using line.find("//") —
    which used to truncate the line at the URL and hide any banned
    construct after it."""
    out: list[str] = []
    quote: str | None = None
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        if quote is not None:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(line[i + 1])
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if line[i + 1] == "/":
                return "".join(out), False
            if line[i + 1] == "*":
                in_block = True
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def lint_file(path: Path, src_root: Path, allowlist: Allowlist) -> list[str]:
    # Rule scopes (src/hw/, src/sim/, ...) and reported paths are both
    # relative to the parent of the linted tree, so fixture trees that
    # mirror the src/ layout exercise every directory-scoped rule.
    rel = path.relative_to(src_root.parent).as_posix()
    findings = []
    in_block_comment = False
    for lineno, line in enumerate(
            path.read_text(errors="replace").splitlines(), 1):
        code, in_block_comment = strip_comments(line, in_block_comment)
        if not code.strip():
            continue

        def report(rule: str, msg: str):
            if not allowlist.allowed(rel, line):
                findings.append(f"{rel}:{lineno}: [{rule}] {msg}\n"
                                f"    {line.strip()}")

        for rule, rx, msg in DETERMINISM_RULES:
            if rx.search(code):
                report(rule, msg)
        if IOSTREAM_RULE.search(code):
            report("iostream", "library code must not use std streams; "
                   "use the CSV/trace writers or return data")
        if (path.suffix in (".hh", ".h", ".hpp")
                and any(rel.startswith(d) for d in PHYSICS_HEADER_DIRS)
                and RAW_DOUBLE_PARAM.search(code)):
            report("raw-double-unit", "unit-suffixed double parameter in a "
                   "physics header; use the typed quantities from "
                   "common/quantity.hh")
        if any(rel.startswith(d) for d in HOT_PATH_DIRS):
            for rule, rx, msg in HOT_PATH_RULES:
                if rx.search(code):
                    report(rule, msg)
        if (path.suffix in (".hh", ".h", ".hpp")
                and rel.startswith(OBS_HEADER_DIR)
                and OBS_HEADER_ALLOC.search(code)):
            report("obs-header-alloc",
                   "allocation-prone construct in an obs header; the "
                   "inline metric increment path must not allocate — "
                   "declare here, define in the .cc")
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(prog="lint_sim")
    ap.add_argument("--src", default=str(REPO / "src"),
                    help="source tree to lint (default: repo src/)")
    ap.add_argument("--allowlist", default=str(ALLOWLIST),
                    help="suppression file (default: "
                         "tools/lint_allowlist.txt)")
    ap.add_argument("--check-allowlist", action="store_true",
                    help="fail if any allowlist entry is stale")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    if not src.is_dir():
        print(f"lint_sim: source tree not found: {src}", file=sys.stderr)
        return 2
    allowlist = Allowlist(Path(args.allowlist))
    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix in CXX_SUFFIXES and path.is_file():
            findings.extend(lint_file(path, src, allowlist))

    status = 0
    if findings:
        print(f"lint_sim: {len(findings)} finding(s)\n")
        print("\n".join(findings))
        print("\nSanctioned exceptions go in tools/lint_allowlist.txt "
              "(<path-substring>:<line-substring>).")
        status = 1
    else:
        print("lint_sim: clean")

    stale = allowlist.stale()
    if args.check_allowlist and stale:
        print("\nlint_sim: stale allowlist entries (no longer match "
              "any finding):", file=sys.stderr)
        for entry in stale:
            print(f"    {entry}", file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
