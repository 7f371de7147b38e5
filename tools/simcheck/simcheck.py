#!/usr/bin/env python3
"""simcheck — the simulator's static contract checker.

Enforces determinism (container iteration order, pointer ordering, RNG
seeding, ambient entropy), unit soundness (unit-suffixed raw doubles,
Quantity::value() escapes on public APIs) and library hygiene (std
streams, hot-path and obs-header allocations, functions nothing calls)
over src/. The dead-export rule also reads bench/, examples/ and
hostbench/ under --repo-root as callers; tests/ never count.

Frontends (--frontend):
  auto      libclang (clang.cindex over compile_commands.json) when
            installed and version-pinned, else the built-in parser
  clang     force libclang; error out if unavailable
  internal  force the built-in token/structure parser (no deps)

Suppressions live in tools/simcheck/allowlist.txt, one per line:
    <rule>:<path-substring>:<line-substring>
('*' as rule matches every rule.) --check-allowlist exits nonzero when
any entry no longer suppresses a finding, so suppressions cannot rot.

Exit status: 0 clean, 1 findings (or stale allowlist), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import internal_frontend  # noqa: E402
from cxxlex import tokenize  # noqa: E402
from ir import FileModel, Finding  # noqa: E402
from rules import RULES, Analyzer  # noqa: E402

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
CXX_SUFFIXES = (".hh", ".h", ".cc", ".cpp", ".hpp")

SCHEMA_VERSION = 1
# Trees under --repo-root whose code may call the library (dead-export).
CALLER_DIRS = ("bench", "examples", "hostbench")


def collect_files(src_root: str) -> list[str]:
    out = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(CXX_SUFFIXES):
                out.append(os.path.join(dirpath, name))
    out.sort()
    return out


def load_allowlist(path: str) -> list[tuple[str, str, str]]:
    entries: list[tuple[str, str, str]] = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":", 2)
            if len(parts) != 3:
                print(f"simcheck: malformed allowlist entry: {line!r} "
                      "(want <rule>:<path-sub>:<line-sub>)",
                      file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1], parts[2]))
    return entries


def apply_allowlist(findings: list[Finding],
                    entries: list[tuple[str, str, str]],
                    sources: dict[str, list[str]]) -> dict[str, int]:
    """Mark suppressed findings; return per-entry hit counts."""
    hits = {f"{r}:{p}:{s}": 0 for r, p, s in entries}
    for f in findings:
        src_lines = sources.get(f.file, [])
        line_text = src_lines[f.line - 1] if 0 < f.line <= len(src_lines) \
            else f.snippet
        for r, p, s in entries:
            if r not in ("*", f.rule):
                continue
            if p in f.file and s in line_text:
                f.suppressed = True
                f.allow_key = f"{r}:{p}:{s}"
                hits[f.allow_key] += 1
                break
    return hits


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="simcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(REPO, "src"),
                    help="source tree to analyze (default: repo src/)")
    ap.add_argument("--repo-root", default=REPO,
                    help="root for repo-relative paths in reports")
    ap.add_argument("--compile-commands",
                    default=os.path.join(REPO, "build",
                                         "compile_commands.json"),
                    help="compile_commands.json for the clang frontend")
    ap.add_argument("--frontend", choices=("auto", "clang", "internal"),
                    default="auto")
    ap.add_argument("--allowlist",
                    default=os.path.join(REPO, "tools", "simcheck",
                                         "allowlist.txt"))
    ap.add_argument("--json", metavar="PATH",
                    help="write machine-readable findings JSON")
    ap.add_argument("--rules", metavar="R1,R2",
                    help="run only these rules (comma-separated)")
    ap.add_argument("--check-allowlist", action="store_true",
                    help="fail if any allowlist entry is stale")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES:
            print(f"{rule:22s} {desc}")
        return 0

    src_root = os.path.abspath(args.src)
    if not os.path.isdir(src_root):
        print(f"simcheck: source tree not found: {src_root}",
              file=sys.stderr)
        return 2
    files = collect_files(src_root)
    if not files:
        print(f"simcheck: no C++ sources under {src_root}",
              file=sys.stderr)
        return 2

    repo_root = os.path.abspath(args.repo_root)
    frontend_used = "internal"
    frontend_version = f"builtin (python {sys.version.split()[0]})"
    models: list[FileModel] = []

    if args.frontend in ("auto", "clang"):
        try:
            import clang_frontend
            models, frontend_version = clang_frontend.parse_tree(
                src_root, repo_root, args.compile_commands, files)
            frontend_used = "clang"
        except clang_frontend.FrontendUnavailable as e:
            if args.frontend == "clang":
                print(f"simcheck: clang frontend unavailable: {e}",
                      file=sys.stderr)
                return 2
            print(f"simcheck: note: {e}; using internal frontend",
                  file=sys.stderr)

    if not models:
        for path in files:
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            models.append(internal_frontend.parse_file(path, rel))

    sources: dict[str, list[str]] = {}
    for path in files:
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            sources[rel] = f.read().splitlines()

    only = set(args.rules.split(",")) if args.rules else None
    if only:
        known = {r for r, _ in RULES}
        bad = only - known
        if bad:
            print(f"simcheck: unknown rule(s): {', '.join(sorted(bad))}",
                  file=sys.stderr)
            return 2

    callers = {}
    for sub in CALLER_DIRS:
        for path in collect_files(os.path.join(repo_root, sub)):
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            with open(path, encoding="utf-8", errors="replace") as f:
                callers[rel] = tokenize(f.read())

    analyzer = Analyzer(models, sources, callers)
    findings = analyzer.run(only)

    entries = load_allowlist(args.allowlist)
    hits = apply_allowlist(findings, entries, sources)

    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    stale = [key for key, n in hits.items() if n == 0]

    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool": "simcheck",
            "frontend": frontend_used,
            "frontend_version": frontend_version,
            "src_root": os.path.relpath(src_root, repo_root),
            "files_analyzed": len(files),
            "rules": [{"id": r, "description": d} for r, d in RULES],
            "findings": [f.to_json() for f in findings],
            "summary": {
                "active": len(active),
                "suppressed": len(suppressed),
                "stale_allowlist_entries": stale,
            },
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    for f in active:
        print(f"{f.location()}: [{f.rule}] {f.message}")
        if f.function:
            print(f"    in {f.function}")
        if f.snippet:
            print(f"    {f.snippet}")

    status = 0
    if active:
        print(f"\nsimcheck: {len(active)} finding(s) "
              f"({len(suppressed)} suppressed) "
              f"[frontend={frontend_used}]")
        print("Sanctioned exceptions go in tools/simcheck/allowlist.txt "
              "(<rule>:<path-substring>:<line-substring>).")
        status = 1
    else:
        print(f"simcheck: clean ({len(files)} files, "
              f"{len(suppressed)} suppressed) "
              f"[frontend={frontend_used}]")

    if args.check_allowlist and stale:
        print("\nsimcheck: stale allowlist entries (no longer match "
              "any finding):", file=sys.stderr)
        for key in stale:
            print(f"    {key}", file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
