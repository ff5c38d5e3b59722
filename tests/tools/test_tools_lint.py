#!/usr/bin/env python3
"""Unit tests for tools/lint.py (ctest: test_tools_lint).

Covers the escape machinery (same-line, previous-line, file-start, CRLF,
block comments) and each of the four rules against fixture sources.
Seeded randomness and the MN-* catalogue are the analyzer's rules; their
cases live in test_tools_analyze.py.
"""
from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import lint  # noqa: E402


class EscapeCoveredLines(unittest.TestCase):
    def test_same_line_and_next_line_covered(self):
        text = "double x;\ndouble y; // lint: allow-raw-double(calib)\ndouble z;\n"
        covered = lint.escape_covered_lines(text, lint.RAW_DOUBLE_ALLOW)
        self.assertEqual(covered, {2, 3})

    def test_file_start_escape_covers_line_one_and_two(self):
        text = "// lint: allow-raw-double(top of file)\ndouble wire_resistance;\n"
        covered = lint.escape_covered_lines(text, lint.RAW_DOUBLE_ALLOW)
        self.assertIn(1, covered)
        self.assertIn(2, covered)

    def test_crlf_line_endings_do_not_hide_the_escape(self):
        # As read with newline="" (or from a tool that does not normalize):
        # the trailing \r used to sit inside the match window.
        text = "double r; // lint: allow-raw-double(crlf file)\r\ndouble s;\r\n"
        covered = lint.escape_covered_lines(text, lint.RAW_DOUBLE_ALLOW)
        self.assertEqual(covered, {1, 2})

    def test_block_comment_escape_covers_whole_block_and_next_line(self):
        text = (
            "/* lint: allow-raw-chrono(rationale that\n"
            "   needs several lines to state)\n"
            "*/\n"
            "std::chrono::steady_clock tick;\n"
            "std::chrono::steady_clock uncovered;\n"
        )
        covered = lint.escape_covered_lines(text, lint.RAW_CHRONO_ALLOW)
        self.assertTrue({1, 2, 3, 4} <= covered)
        self.assertNotIn(5, covered)

    def test_unrelated_block_comment_covers_nothing(self):
        text = "/* just a comment\n   spanning lines */\ndouble voltage_x;\n"
        self.assertEqual(
            lint.escape_covered_lines(text, lint.RAW_DOUBLE_ALLOW), set()
        )


class FixtureFileMixin:
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.tmp = pathlib.Path(self._tmp.name)

    def fixture(self, name: str, text: str) -> pathlib.Path:
        path = self.tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path


class RawDoubleRule(FixtureFileMixin, unittest.TestCase):
    REL = "src/tech/fixture.hpp"

    def run_rule(self, text: str) -> list[str]:
        findings: list[str] = []
        lint.check_raw_double(self.fixture("f.hpp", text), self.REL, findings)
        return findings

    def test_physical_double_is_flagged(self):
        findings = self.run_rule("struct S { double segment_resistance; };\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("raw-double-physical-param", findings[0])

    def test_nm_suffix_is_documented_raw(self):
        self.assertEqual(self.run_rule("double feature_size_nm;\n"), [])

    def test_same_line_escape(self):
        self.assertEqual(
            self.run_rule(
                "double vdd_rail;  // lint: allow-raw-double(boundary)\n"
            ),
            [],
        )

    def test_previous_line_escape(self):
        self.assertEqual(
            self.run_rule(
                "// lint: allow-raw-double(boundary)\ndouble vdd_rail;\n"
            ),
            [],
        )

    def test_allowed_file_is_exempt(self):
        findings: list[str] = []
        lint.check_raw_double(
            self.fixture("m.hpp", "double read_voltage;\n"),
            "src/circuit/module.hpp",
            findings,
        )
        self.assertEqual(findings, [])


class ChronoAndOfstreamRules(FixtureFileMixin, unittest.TestCase):
    def test_chrono_flagged_outside_obs(self):
        findings: list[str] = []
        lint.check_raw_chrono(
            self.fixture("f.cpp", "auto t = std::chrono::steady_clock::now();\n"),
            "src/dse/fixture.cpp",
            findings,
        )
        self.assertEqual(len(findings), 1)
        self.assertIn("raw-chrono-timing", findings[0])

    def test_chrono_allowed_in_obs_and_tests(self):
        for rel in ("src/obs/trace.cpp", "tests/test_x.cpp"):
            findings: list[str] = []
            lint.check_raw_chrono(
                self.fixture("f.cpp", "std::chrono::seconds s{1};\n"),
                rel,
                findings,
            )
            self.assertEqual(findings, [], rel)

    def test_ofstream_flagged_and_escapable(self):
        flagged: list[str] = []
        lint.check_raw_ofstream(
            self.fixture("a.cpp", "std::ofstream out(path);\n"),
            "src/dse/report.cpp",
            flagged,
        )
        self.assertEqual(len(flagged), 1)
        escaped: list[str] = []
        lint.check_raw_ofstream(
            self.fixture(
                "b.cpp",
                "// lint: allow-raw-ofstream(failure path)\n"
                "std::ofstream out(path);\n",
            ),
            "src/dse/report.cpp",
            escaped,
        )
        self.assertEqual(escaped, [])


class ThreadIncludeRule(FixtureFileMixin, unittest.TestCase):
    def run_rule(self, text: str, rel: str = "src/dse/fixture.cpp") -> list[str]:
        findings: list[str] = []
        lint.check_thread_include(self.fixture("f.cpp", text), rel, findings)
        return findings

    def test_thread_and_future_includes_flagged(self):
        for header in ("thread", "future"):
            findings = self.run_rule(f"#include <{header}>\n")
            self.assertEqual(len(findings), 1, header)
            self.assertIn("thread-include", findings[0])
            self.assertIn(f"<{header}>", findings[0])

    def test_src_util_and_tests_exempt(self):
        for rel in ("src/util/parallel.hpp", "tests/test_x.cpp"):
            self.assertEqual(
                self.run_rule("#include <thread>\n", rel=rel), [], rel
            )

    def test_same_and_previous_line_escapes(self):
        self.assertEqual(
            self.run_rule(
                "#include <thread>  // lint: allow-thread-include(watchdog)\n"
            ),
            [],
        )
        self.assertEqual(
            self.run_rule(
                "// lint: allow-thread-include(watchdog)\n"
                "#include <thread>\n"
            ),
            [],
        )

    def test_finding_points_at_the_analyzer(self):
        findings = self.run_rule("#include <thread>\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("tools/analyze --rules raw-thread", findings[0])


class EndToEnd(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint.py")],
            capture_output=True,
            text=True,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_file_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint.py"), "/no/such.cpp"],
            capture_output=True,
            text=True,
        )
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
