#!/usr/bin/env python3
"""Unit tests for tools/analyze (ctest: test_tools_analyze).

Each test drives the analyzer as a subprocess over a fixture mini-repo
(compile database + source trees + catalogue), so the tests run in any
environment the repo builds in. Covered contract: finding detection,
both escape placements, the mandatory escape reason, the baseline
lifecycle (write, honor, go-stale), SARIF output shape (including exact
endColumn spans and per-rule helpUri), the MN-* catalogue sync in both
directions, seeded randomness over src/, tests/, bench/ and examples/,
and the three concurrency rules (parallel-capture, raw-thread,
atomic-order).
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
ANALYZE = REPO / "tools" / "analyze"

FP_VIOLATION = (
    "double pick(double a, double b) {\n"
    "  if (a == b) return a;\n"
    "  return b;\n"
    "}\n"
)


class AnalyzeFixture(unittest.TestCase):
    """Mini-repo fixture; the test classes below add the cases."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.repo = pathlib.Path(self._tmp.name)
        (self.repo / "build").mkdir()
        (self.repo / "docs").mkdir()
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text("# Diagnostics\n")

    def add_source(self, rel: str, text: str) -> None:
        path = self.repo / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        db = self.repo / "build" / "compile_commands.json"
        entries = json.loads(db.read_text()) if db.is_file() else []
        entries.append(
            {
                "directory": str(self.repo),
                "command": f"g++ -std=c++20 -c {rel}",
                "file": rel,
            }
        )
        db.write_text(json.dumps(entries))

    def run_analyze(self, *extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable,
                str(ANALYZE),
                "-p",
                "build",
                "--repo",
                str(self.repo),
                "--baseline",
                "baseline.json",
                *extra,
            ],
            capture_output=True,
            text=True,
        )

    def assert_verdict(self, source: str, *, rel: str, rule: str,
                       line: int | None) -> None:
        """line=None asserts clean; otherwise one finding of `rule` there."""
        self.add_source(rel, source)
        proc = self.run_analyze()
        if line is None:
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        else:
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn(f"{rel}:{line}:", proc.stdout)
            self.assertIn(rule, proc.stdout)


class CoreContract(AnalyzeFixture):
    def test_fp_equality_violation_fails_the_gate(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("fp-equality", proc.stdout)
        self.assertIn("src/numeric/demo.cpp:2", proc.stdout)

    def test_same_line_escape_is_honored(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "return a;",
                "return a;  // mnsim-analyze: allow(fp-equality, fixture)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_previous_line_escape_is_honored(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "  if (a == b)",
                "  // mnsim-analyze: allow(fp-equality, fixture)\n"
                "  if (a == b)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_escape_without_reason_is_itself_a_finding(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "return a;",
                "return a;  // mnsim-analyze: allow(fp-equality)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("malformed-escape", proc.stdout)

    def test_baseline_lifecycle(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        # 1. Accept the current findings with a written reason.
        wrote = self.run_analyze("--write-baseline", "known fixture defect")
        self.assertEqual(wrote.returncode, 0, wrote.stdout + wrote.stderr)
        baseline = json.loads((self.repo / "baseline.json").read_text())
        self.assertTrue(
            all(e["reason"] == "known fixture defect"
                for e in baseline["findings"])
        )
        # 2. The baselined finding no longer fails the gate.
        honored = self.run_analyze()
        self.assertEqual(honored.returncode, 0, honored.stdout + honored.stderr)
        self.assertIn("1 baselined", honored.stderr)
        # 3. Fixing the defect makes the baseline entry stale — the gate
        # fails until the baseline is consciously regenerated.
        (self.repo / "src/numeric/demo.cpp").write_text(
            "double pick(double a, double) { return a; }\n"
        )
        stale = self.run_analyze()
        self.assertEqual(stale.returncode, 1)
        self.assertIn("stale baseline", stale.stdout)

    def test_sarif_report_shape(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        sarif_path = self.repo / "report.sarif"
        self.run_analyze("--sarif", str(sarif_path))
        report = json.loads(sarif_path.read_text())
        self.assertEqual(report["version"], "2.1.0")
        run = report["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "mnsim-analyze")
        results = run["results"]
        self.assertTrue(results)
        self.assertEqual(results[0]["ruleId"], "fp-equality")

    def test_missing_compile_db_is_usage_error(self):
        proc = self.run_analyze("-p", "no-such-dir")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no compile database", proc.stderr)


class DiagnosticCatalogue(AnalyzeFixture):
    """mn-code-extraction: MN-* string literals in src/ vs the catalogue."""

    def test_undocumented_code_fails_the_gate(self):
        self.add_source(
            "src/check/diag.cpp",
            'const char* code() { return "MN-TST-001: boom"; }\n',
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("src/check/diag.cpp:1:", proc.stdout)
        self.assertIn("'MN-TST-001' is emitted", proc.stdout)
        self.assertIn("not catalogued", proc.stdout)

    def test_agreement_is_clean(self):
        self.add_source(
            "src/check/diag.cpp",
            'const char* code() { return "MN-TST-001: boom"; }\n',
        )
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text(
            "| MN-TST-001 | fixture |\n"
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_stale_catalogue_entry_fails_the_gate(self):
        self.add_source("src/check/diag.cpp", "int x;\n")
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text(
            "# Diagnostics\n| MN-TST-003 | retired |\n"
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("docs/DIAGNOSTICS.md:2:", proc.stdout)
        self.assertIn("'MN-TST-003' is catalogued", proc.stdout)
        self.assertIn("stale entry", proc.stdout)

    def test_comment_mention_is_not_an_emitted_code(self):
        # A code named in a comment must not count as emitted: a line
        # grep would call it emitted and so hide the stale entry.
        self.add_source(
            "src/check/diag.cpp",
            "// retired long ago: MN-TST-099\nint x;\n",
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text(
            "| MN-TST-099 | retired |\n"
        )
        stale = self.run_analyze()
        self.assertEqual(stale.returncode, 1, stale.stdout + stale.stderr)
        self.assertIn("'MN-TST-099' is catalogued", stale.stdout)

    def test_codes_outside_src_are_not_emission_sites(self):
        self.add_source(
            "tests/test_fixture.cpp",
            'const char* expected = "MN-TST-005";\n',
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


RNG_LINES = (
    "std::random_device rd;\n"
    "std::mt19937 unseeded;\n"
    "std::mt19937 seeded(42u);\n"
)


class SeededRandomness(AnalyzeFixture):
    """unseeded-rng: every stochastic component takes an explicit seed."""

    def test_random_device_is_flagged(self):
        self.assert_verdict("std::random_device rd;\n",
                            rel="src/nn/fixture.cpp", rule="unseeded-rng",
                            line=1)

    def test_unseeded_engine_is_flagged(self):
        for decl in ("std::mt19937 rng;", "std::mt19937_64 rng{};",
                     "std::default_random_engine rng();",
                     "auto x = std::minstd_rand()();"):
            with self.subTest(decl=decl):
                self.assert_verdict(decl + "\n", rel="src/nn/fixture.cpp",
                                    rule="unseeded-rng", line=1)

    def test_seeded_engine_is_clean(self):
        self.assert_verdict("std::mt19937 rng(seed);\n",
                            rel="src/nn/fixture.cpp", rule="unseeded-rng",
                            line=None)

    def test_src_util_is_exempt(self):
        self.assert_verdict(RNG_LINES, rel="src/util/rng.cpp",
                            rule="unseeded-rng", line=None)

    def test_tests_bench_and_examples_are_in_scope(self):
        # The default roots reach past src/: a test or bench drawing
        # fresh entropy is as irreproducible as library code.
        for rel in ("tests/test_fixture.cpp", "bench/bench_fixture.cpp",
                    "examples/fixture.cpp"):
            with self.subTest(rel=rel):
                (self.repo / "build" / "compile_commands.json").unlink(
                    missing_ok=True)
                self.add_source(rel, RNG_LINES)
                proc = self.run_analyze()
                self.assertEqual(proc.returncode, 1,
                                 proc.stdout + proc.stderr)
                flagged = [ln for ln in proc.stdout.splitlines()
                           if "unseeded-rng" in ln]
                self.assertEqual(
                    [ln.split(":")[1] for ln in flagged], ["1", "2"],
                    proc.stdout)
                self.assertTrue(all(ln.startswith(rel) for ln in flagged))

    def test_other_rules_stay_on_src(self):
        self.assert_verdict(FP_VIOLATION, rel="tests/test_fixture.cpp",
                            rule="fp-equality", line=None)


RAW_THREAD = (
    "void spawn() {\n"
    "  std::thread worker([] {});\n"
    "  worker.join();\n"
    "}\n"
)

RAW_ASYNC = (
    "int run();\n"
    "void go() {\n"
    "  auto f = std::async(run);\n"
    "  f.get();\n"
    "}\n"
)

ATOMIC_ORDER = (
    "std::atomic<bool> flag{false};\n"
    "void request_stop() {\n"
    "  flag.store(true, std::memory_order_relaxed);\n"
    "}\n"
)

PAR_CAPTURE = (
    "void sweep(int n) {\n"
    "  int total = 0;\n"
    "  parallel_map(0, n, [&](std::size_t i, std::size_t) {\n"
    "    total += static_cast<int>(i);\n"
    "  });\n"
    "}\n"
)

PAR_WORKER_SLOTS = (
    "void sweep(std::vector<double>& slots, int n) {\n"
    "  parallel_map(0, n, [&](std::size_t i, std::size_t worker) {\n"
    "    slots[worker] += static_cast<double>(i);\n"
    "  });\n"
    "}\n"
)


class ConcurrencyRules(AnalyzeFixture):
    """The three rules that complement the Clang -Wthread-safety gate."""

    def test_raw_thread_construction_is_flagged(self):
        self.assert_verdict(
            RAW_THREAD, rel="src/dse/fixture.cpp", rule="raw-thread", line=2
        )

    def test_raw_async_is_flagged(self):
        self.assert_verdict(
            RAW_ASYNC, rel="src/dse/fixture.cpp", rule="raw-thread", line=3
        )

    def test_raw_thread_escape_is_honored(self):
        self.assert_verdict(
            RAW_THREAD.replace(
                "  std::thread worker",
                "  // mnsim-analyze: allow(raw-thread, fixture supervisor)\n"
                "  std::thread worker",
            ),
            rel="src/dse/fixture.cpp",
            rule="raw-thread",
            line=None,
        )

    def test_raw_thread_allowed_inside_the_pool(self):
        # util::ThreadPool is where threads are *supposed* to live.
        self.assert_verdict(
            RAW_THREAD, rel="src/util/parallel.cpp", rule="raw-thread",
            line=None,
        )

    def test_atomic_order_explicit_ordering_is_flagged(self):
        self.assert_verdict(
            ATOMIC_ORDER, rel="src/util/fixture.hpp", rule="atomic-order",
            line=3,
        )

    def test_atomic_order_scoped_enumerator_form_is_flagged(self):
        self.assert_verdict(
            ATOMIC_ORDER.replace(
                "std::memory_order_relaxed", "std::memory_order::relaxed"
            ),
            rel="src/util/fixture.hpp",
            rule="atomic-order",
            line=3,
        )

    def test_atomic_order_escape_is_honored(self):
        self.assert_verdict(
            ATOMIC_ORDER.replace(
                "  flag.store",
                "  // mnsim-analyze: allow(atomic-order, standalone flag, "
                "no payload)\n"
                "  flag.store",
            ),
            rel="src/util/fixture.hpp",
            rule="atomic-order",
            line=None,
        )

    def test_atomic_order_default_ordering_is_clean(self):
        self.assert_verdict(
            "std::atomic<bool> flag{false};\n"
            "void request_stop() { flag.store(true); }\n",
            rel="src/util/fixture.hpp",
            rule="atomic-order",
            line=None,
        )

    def test_parallel_capture_shared_write_is_flagged(self):
        self.assert_verdict(
            PAR_CAPTURE, rel="src/nn/fixture.cpp", rule="parallel-capture",
            line=4,
        )

    def test_parallel_capture_worker_slot_idiom_is_clean(self):
        self.assert_verdict(
            PAR_WORKER_SLOTS, rel="src/nn/fixture.cpp",
            rule="parallel-capture", line=None,
        )

    def test_parallel_capture_escape_is_honored(self):
        self.assert_verdict(
            PAR_CAPTURE.replace(
                "    total +=",
                "    // mnsim-analyze: allow(parallel-capture, fixture: "
                "serialized elsewhere)\n"
                "    total +=",
            ),
            rel="src/nn/fixture.cpp",
            rule="parallel-capture",
            line=None,
        )

    def test_concurrency_rules_baseline_lifecycle(self):
        self.add_source("src/util/fixture.hpp", ATOMIC_ORDER)
        wrote = self.run_analyze("--write-baseline", "pre-annotation site")
        self.assertEqual(wrote.returncode, 0, wrote.stdout + wrote.stderr)
        honored = self.run_analyze()
        self.assertEqual(honored.returncode, 0, honored.stdout + honored.stderr)
        self.assertIn("1 baselined", honored.stderr)
        # Dropping the explicit ordering makes the entry stale: the gate
        # demands the baseline shrink with the fix.
        (self.repo / "src/util/fixture.hpp").write_text(
            ATOMIC_ORDER.replace(", std::memory_order_relaxed", "")
        )
        stale = self.run_analyze()
        self.assertEqual(stale.returncode, 1)
        self.assertIn("stale baseline", stale.stdout)

    def test_concurrency_rules_are_listed(self):
        proc = self.run_analyze("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("parallel-capture", "raw-thread", "atomic-order"):
            self.assertIn(rule, proc.stdout)

    def test_sarif_exact_span_and_help_uri(self):
        self.add_source("src/util/fixture.hpp", ATOMIC_ORDER)
        sarif_path = self.repo / "report.sarif"
        self.run_analyze("--sarif", str(sarif_path))
        report = json.loads(sarif_path.read_text())
        driver = report["runs"][0]["tool"]["driver"]
        by_id = {r["id"]: r for r in driver["rules"]}
        for rule in ("parallel-capture", "raw-thread", "atomic-order"):
            self.assertEqual(
                by_id[rule]["helpUri"], f"docs/STATIC_ANALYSIS.md#{rule}"
            )
        (result,) = report["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        # Exact token span: the annotation must cover precisely
        # `memory_order_relaxed`, not a one-column fallback stub.
        self.assertEqual(
            region["endColumn"] - region["startColumn"],
            len("memory_order_relaxed"),
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
