#!/usr/bin/env python3
"""Fixture tests for tools/simcheck (stdlib unittest; no pytest).

Every rule must fire on its bad fixture and stay silent on the clean
tree; the allowlist must suppress and --check-allowlist must flag stale
entries; the JSON report must carry the documented schema. The lexer
tests pin the comment- and literal-awareness the token rules rely on.
Tests run the internal frontend so they pass in environments without
libclang; when clang.cindex IS importable, a cross-frontend smoke test
checks the clang path agrees on the fixtures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SIMCHECK = REPO / "tools" / "simcheck" / "simcheck.py"
FIXTURES = HERE / "fixtures" / "simcheck"

sys.path.insert(0, str(SIMCHECK.parent))
from cxxlex import STR, Token, tokenize  # noqa: E402
from ir import FileModel  # noqa: E402
from rules import Analyzer  # noqa: E402

ALL_RULES = (
    "det-unordered-iter", "det-pointer-key", "det-pointer-compare",
    "det-unseeded-rng", "det-ambient-entropy", "unit-raw-double",
    "unit-value-escape", "lib-iostream", "hot-path-alloc",
    "obs-header-alloc", "dead-export",
)


def run_simcheck(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SIMCHECK), *argv],
        capture_output=True, text=True, cwd=REPO)


def bad_tree_args(frontend: str = "internal") -> list[str]:
    return ["--frontend", frontend,
            "--src", str(FIXTURES / "bad" / "src"),
            "--repo-root", str(FIXTURES / "bad"),
            "--allowlist", "/dev/null"]


class BadFixtureTest(unittest.TestCase):
    def test_every_rule_fires(self):
        r = run_simcheck(*bad_tree_args())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for rule in ALL_RULES:
            self.assertIn(f"[{rule}]", r.stdout,
                          f"rule {rule} did not fire:\n{r.stdout}")

    def test_expected_sites(self):
        r = run_simcheck(*bad_tree_args())
        # random_device (line 14) follows a "https://..." literal whose
        # `//` must not start a comment; 17 is std::rand().
        sites = [f"core/bad_determinism.cc:{n}: [det-ambient-entropy]"
                 for n in (14, 16, 17, 18, 20, 22)] + [
            "core/bad_iostream.cc:2: [lib-iostream]",
            "det_pointer_compare.cc:15: [det-pointer-compare]",
            "det_pointer_key.cc:11: [det-pointer-key]",
            "det_unordered.cc:11: [det-unordered-iter]",
            "det_unseeded_rng.cc:9: [det-unseeded-rng]",
            "dead_export.cc:9: [dead-export]",
            "obs/bad_counter.hh:11: [obs-header-alloc]",
            "sim/bad_hot_path.cc:11: [hot-path-alloc]",
            "sim/bad_hot_path.cc:16: [hot-path-alloc]",
            "unit_raw_double.hh:9: [unit-raw-double]",
            "unit_value_escape.hh:15: [unit-value-escape]",
        ]
        for site in sites:
            self.assertIn(f"src/{site}", r.stdout)

    def test_dead_export_spares_called_functions(self):
        # read (called from bench/), helper (called by read) and
        # viaMacro (called in a macro body) are used; unused only names
        # itself.
        r = run_simcheck(*bad_tree_args(), "--rules", "dead-export")
        hits = [line for line in r.stdout.splitlines()
                if line.startswith("src/dead_export.cc:")]
        self.assertEqual(len(hits), 1, r.stdout)
        self.assertIn("'unused'", hits[0])

    def test_rule_filter(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "det-unseeded-rng")
        self.assertIn("[det-unseeded-rng]", r.stdout)
        self.assertNotIn("[unit-raw-double]", r.stdout)

    def test_unknown_rule_rejected(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "no-such-rule")
        self.assertEqual(r.returncode, 2)


class LexerTest(unittest.TestCase):
    """Comments vanish and literals stay opaque, so a banned name is an
    `id` token only where it is code."""

    CASES = (  # source, ids present, ids absent, string literals
        ('const char* d = "https://x.io"; std::random_device rd;',
         {"random_device"}, set(), ['"https://x.io"']),
        ("int x = 1; // rand() in prose", {"x"}, {"rand"}, []),
        (r'auto s = "a\"b // c"; f();', {"f"}, set(), [r'"a\"b // c"']),
        ("int y; /* steady_clock prose */ g();", {"g"}, {"steady_clock"},
         []),
        ("start /* opens\nrand() still inside\ndone */ h();",
         {"start", "h"}, {"rand"}, []),
        ('auto s = "/* not a comment"; k();', {"k"}, set(),
         ['"/* not a comment"']),
    )

    def test_comments_and_literals_hide_banned_names(self):
        for src, present, absent, strings in self.CASES:
            with self.subTest(src=src):
                toks = tokenize(src)
                ids = {t.text for t in toks if t.kind == "id"}
                self.assertLessEqual(present, ids)
                self.assertFalse(absent & ids)
                self.assertEqual(
                    [t.text for t in toks if t.kind == STR], strings)


class LibclangTokenShapeTest(unittest.TestCase):
    def test_split_include_is_flagged(self):
        # libclang lexes `#include <iostream>` as five tokens; the bad
        # fixture tree covers the internal lexer's one directive token.
        toks = [Token(kind, text, 1) for kind, text in (
            ("punct", "#"), ("id", "include"), ("punct", "<"),
            ("id", "iostream"), ("punct", ">"))]
        found = Analyzer([FileModel("src/core/x.cc", False, toks)],
                         {}).run({"lib-iostream"})
        self.assertEqual([(f.rule, f.line) for f in found],
                         [("lib-iostream", 1)])


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tree_is_clean(self):
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "clean" / "src"),
                         "--repo-root", str(FIXTURES / "clean"),
                         "--allowlist", "/dev/null")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("clean", r.stdout)


    def test_callers_outside_src_count(self):
        # The clean tree's functions are called only from its bench/;
        # without that tree every one of them is dead.
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(FIXTURES / "clean" / "src", Path(root) / "src")
            r = run_simcheck("--frontend", "internal",
                             "--src", str(Path(root) / "src"),
                             "--repo-root", root,
                             "--allowlist", "/dev/null")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for name in ("roll", "countById", "sortThem", "runOne"):
            self.assertIn(f"'{name}' is defined here", r.stdout)


class AllowlistTest(unittest.TestCase):
    def test_allowlist_suppresses(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("det-unseeded-rng:det_unseeded_rng.cc:mt19937\n")
            allow = f.name
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "bad" / "src"),
                         "--repo-root", str(FIXTURES / "bad"),
                         "--allowlist", allow)
        self.assertEqual(r.returncode, 1)  # other rules still fire
        self.assertNotIn("[det-unseeded-rng]", r.stdout)

    def test_stale_entry_detected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("*:no_such_file.cc:no_such_line\n")
            allow = f.name
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "clean" / "src"),
                         "--repo-root", str(FIXTURES / "clean"),
                         "--allowlist", allow, "--check-allowlist")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("stale", r.stderr)

    def test_malformed_entry_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("only-one-field\n")
            allow = f.name
        r = run_simcheck(*bad_tree_args()[:-2], "--allowlist", allow)
        self.assertEqual(r.returncode, 2)
        self.assertIn("malformed", r.stderr)

    def test_repo_src_clean_and_allowlist_fresh(self):
        r = run_simcheck("--frontend", "internal", "--check-allowlist")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


class JsonReportTest(unittest.TestCase):
    def test_schema(self):
        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as f:
            out = f.name
        run_simcheck(*bad_tree_args(), "--json", out)
        payload = json.loads(Path(out).read_text())
        self.assertEqual(payload["schema_version"], 1)
        self.assertEqual(payload["tool"], "simcheck")
        self.assertEqual(payload["frontend"], "internal")
        self.assertEqual(
            {r["id"] for r in payload["rules"]}, set(ALL_RULES))
        self.assertGreater(payload["summary"]["active"], 0)
        self.assertEqual(payload["summary"]["suppressed"], 0)
        for finding in payload["findings"]:
            for key in ("rule", "file", "line", "message",
                        "suppressed"):
                self.assertIn(key, finding)
            self.assertIn(finding["rule"], ALL_RULES)


class ClangFrontendSmokeTest(unittest.TestCase):
    """Runs only where python3-clang is installed (e.g. the CI job)."""

    def setUp(self):
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            self.skipTest("clang.cindex not installed")

    def test_clang_frontend_agrees_on_fixtures(self):
        r = run_simcheck(*bad_tree_args("clang"))
        if r.returncode == 2:
            self.skipTest(f"clang frontend unavailable: {r.stderr}")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for rule in ALL_RULES:
            self.assertIn(f"[{rule}]", r.stdout,
                          f"rule {rule} did not fire under libclang:\n"
                          f"{r.stdout}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
