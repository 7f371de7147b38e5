#!/usr/bin/env python3
"""Fixture tests for tools/simcheck (stdlib unittest; no pytest).

Each of the six rules must fire on its bad fixture and stay silent on
the clean tree; the allowlist must suppress and --check-allowlist must
flag stale entries; the JSON report must carry the documented schema.
Tests run the internal frontend so they pass in environments without
libclang; when clang.cindex IS importable, a cross-frontend smoke test
checks the clang path agrees on the fixtures.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SIMCHECK = REPO / "tools" / "simcheck" / "simcheck.py"
FIXTURES = HERE / "fixtures" / "simcheck"

ALL_RULES = (
    "det-unordered-iter", "det-pointer-key", "det-pointer-compare",
    "det-unseeded-rng", "unit-raw-double", "unit-value-escape",
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
        expect = (
            ("det-unordered-iter", "det_unordered.cc"),
            ("det-pointer-key", "det_pointer_key.cc"),
            ("det-pointer-compare", "det_pointer_compare.cc"),
            ("det-unseeded-rng", "det_unseeded_rng.cc"),
            ("unit-raw-double", "unit_raw_double.hh"),
            ("unit-value-escape", "unit_value_escape.hh"),
        )
        for rule, fname in expect:
            self.assertRegex(r.stdout, rf"{fname}:\d+: \[{rule}\]")

    def test_rule_filter(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "det-unseeded-rng")
        self.assertIn("[det-unseeded-rng]", r.stdout)
        self.assertNotIn("[unit-raw-double]", r.stdout)

    def test_unknown_rule_rejected(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "no-such-rule")
        self.assertEqual(r.returncode, 2)


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tree_is_clean(self):
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "clean" / "src"),
                         "--repo-root", str(FIXTURES / "clean"),
                         "--allowlist", "/dev/null")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("clean", r.stdout)


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
