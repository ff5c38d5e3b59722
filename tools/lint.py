#!/usr/bin/env python3
"""MNSIM custom lints, run by the CI static-analysis job (and locally).

Four line-oriented rules guarding source conventions the compiler cannot
see on its own. Seeded randomness and the MN-* diagnostic catalogue are
checked by the analyzer (`python3 tools/analyze`, rules `unseeded-rng`
and `mn-code-extraction`), not here: each concern has one owner.

1. raw-double-physical-param
   Headers in src/tech and src/circuit must not declare new raw-`double`
   members or parameters whose names say they are physical quantities
   (resistance, voltage, power, latency, ...). Those belong to the
   Quantity<Dim> layer in util/quantity.hpp; a raw double there silently
   re-opens the unit-confusion bug class the layer exists to close.
   Escapes:
     * `// lint: allow-raw-double(<why>)` on the same or previous line,
     * names ending in `_nm` (process-node labels, documented raw),
     * src/circuit/module.hpp (the Ppa aggregation struct is the
       documented raw-double boundary; see docs/STATIC_ANALYSIS.md).

2. raw-chrono-timing
   `std::chrono` is forbidden in src/ outside src/obs/. Ad-hoc timing in
   library code bypasses the observability layer (docs/OBSERVABILITY.md):
   it is invisible in trace exports, double-counts against obs::Span
   phases, and tends to leak printf profiling into the library. Time a
   phase by opening a Span; read the clock via obs::Tracer::now_ns().
   Escape: `// lint: allow-raw-chrono(<why>)` on the same or previous
   line. Benches, tests and examples measure wall clock on purpose and
   are exempt.

3. raw-ofstream-output
   `std::ofstream` is forbidden in src/ and examples/. Output files are
   written through util::atomic_file (write-temp + fsync + rename, or
   DurableAppender for journals; docs/ROBUSTNESS.md): a raw ofstream can
   leave a torn half-written report after a crash, and its error state
   is silently dropped unless every caller remembers to check it.
   Escape: `// lint: allow-raw-ofstream(<why>)` on the same or previous
   line. Benches and tests are exempt (scratch output, failure paths).

4. thread-include
   `#include <thread>` / `#include <future>` are forbidden in src/
   outside src/util/. Concurrency goes through util::ThreadPool
   (src/util/parallel.hpp): a bare std::thread bypasses the pool's
   deterministic slicing, error aggregation, and the MN_* capability
   annotations the Clang thread-safety gate checks. The analyzer's token
   stream drops preprocessor lines, so the include itself is checked
   here; the *construction* sites belong to the analyzer's `raw-thread`
   rule, which the finding points at.
   Escape: `// lint: allow-thread-include(<why>)` on the same or
   previous line.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


# ---- escape handling ---------------------------------------------------------


def escape_covered_lines(text: str, allow_re: re.Pattern[str]) -> set[int]:
    """Line numbers excused by an escape comment matching `allow_re`.

    An escape covers its own line and the next one, so it can sit either
    on the flagged line or directly above it. Three shapes the naive
    previous-line check used to miss are handled explicitly:
      * CRLF line endings (a trailing ``\\r`` is stripped before matching
        so it cannot hide inside the escape's closing paren),
      * escapes written inside a ``/* ... */`` block comment: every line
        of the block plus the line after its close is covered, so a
        multi-line rationale above the construct still counts,
      * an escape on the very first line of a file covering that line
        (there is no previous line to have carried it).
    """
    covered: set[int] = set()
    lines = [ln.rstrip("\r") for ln in text.splitlines()]
    block_start: int | None = None  # line where the open /* block began
    block_hit = False
    for lineno, line in enumerate(lines, 1):
        hit = bool(allow_re.search(line))
        if hit:
            covered.add(lineno)
            covered.add(lineno + 1)
        if block_start is not None:
            block_hit = block_hit or hit
            if "*/" in line:
                if block_hit:
                    covered.update(range(block_start, lineno + 2))
                block_start, block_hit = None, False
        else:
            opener = line.find("/*")
            if opener != -1 and "*/" not in line[opener:]:
                block_start, block_hit = lineno, hit
    return covered

# ---- rule 1: raw-double physical parameters ---------------------------------

PHYSICAL_NAME = re.compile(
    r"""(?x)
    \b double \s+ (?:&\s*)?
    (?P<name>\w*(
        resist | conduct | volt | vdd | current | amp |
        power | leakage | energy |
        latency | delay | _time | time_ | duration |
        capacit | inductance |
        clock | freq | bandwidth |
        area(?!_ratio) |
        feature_size
    )\w*)
    """,
)

RAW_DOUBLE_ALLOW = re.compile(r"lint:\s*allow-raw-double")

# The documented raw-double boundaries (see docs/STATIC_ANALYSIS.md).
RAW_DOUBLE_ALLOWED_FILES = {
    "src/circuit/module.hpp",  # Ppa: raw aggregation boundary
}

RAW_DOUBLE_HEADER_DIRS = ("src/tech", "src/circuit")


def check_raw_double(path: pathlib.Path, rel: str, findings: list[str]) -> None:
    if rel in RAW_DOUBLE_ALLOWED_FILES:
        return
    text = path.read_text()
    covered = escape_covered_lines(text, RAW_DOUBLE_ALLOW)
    for lineno, line in enumerate(text.splitlines(), 1):
        m = PHYSICAL_NAME.search(line)
        if m and not m.group("name").endswith("_nm") and lineno not in covered:
            findings.append(
                f"{rel}:{lineno}: raw-double-physical-param: "
                f"'{m.group('name')}' looks like a physical quantity; "
                f"use a units::Quantity type (util/quantity.hpp) or mark "
                f"the line with `// lint: allow-raw-double(<why>)`"
            )


# ---- rule 2: raw std::chrono timing outside src/obs -------------------------

RAW_CHRONO = re.compile(r"\bstd::chrono\b")
RAW_CHRONO_ALLOW = re.compile(r"lint:\s*allow-raw-chrono")


def check_raw_chrono(path: pathlib.Path, rel: str, findings: list[str]) -> None:
    if not rel.startswith("src/") or rel.startswith("src/obs/"):
        return
    text = path.read_text()
    covered = escape_covered_lines(text, RAW_CHRONO_ALLOW)
    for lineno, line in enumerate(text.splitlines(), 1):
        if RAW_CHRONO.search(line) and lineno not in covered:
            findings.append(
                f"{rel}:{lineno}: raw-chrono-timing: std::chrono in "
                f"library code bypasses the observability layer; open an "
                f"obs::Span (obs/trace.hpp) or mark the line with "
                f"`// lint: allow-raw-chrono(<why>)`"
            )


# ---- rule 3: raw std::ofstream output outside util::atomic_file -------------

RAW_OFSTREAM = re.compile(r"\bstd::ofstream\b")
RAW_OFSTREAM_ALLOW = re.compile(r"lint:\s*allow-raw-ofstream")
RAW_OFSTREAM_ALLOWED_FILES = {
    "src/util/atomic_file.cpp",  # the durable-write implementation itself
}


def check_raw_ofstream(path: pathlib.Path, rel: str, findings: list[str]) -> None:
    if not rel.startswith(("src/", "examples/")):
        return
    if rel in RAW_OFSTREAM_ALLOWED_FILES:
        return
    text = path.read_text()
    covered = escape_covered_lines(text, RAW_OFSTREAM_ALLOW)
    for lineno, line in enumerate(text.splitlines(), 1):
        if RAW_OFSTREAM.search(line) and lineno not in covered:
            findings.append(
                f"{rel}:{lineno}: raw-ofstream-output: write output "
                f"through util::atomic_write_file or util::DurableAppender "
                f"(util/atomic_file.hpp) so a crash cannot tear the file, "
                f"or mark the line with `// lint: allow-raw-ofstream(<why>)`"
            )


# ---- rule 4: <thread>/<future> includes outside src/util --------------------

THREAD_INCLUDE = re.compile(r"#\s*include\s*<(?P<header>thread|future)>")
THREAD_INCLUDE_ALLOW = re.compile(r"lint:\s*allow-thread-include")


def check_thread_include(path: pathlib.Path, rel: str, findings: list[str]) -> None:
    if not rel.startswith("src/") or rel.startswith("src/util/"):
        return
    text = path.read_text()
    covered = escape_covered_lines(text, THREAD_INCLUDE_ALLOW)
    for lineno, line in enumerate(text.splitlines(), 1):
        m = THREAD_INCLUDE.search(line)
        if m and lineno not in covered:
            findings.append(
                f"{rel}:{lineno}: thread-include: <{m.group('header')}> "
                f"outside src/util/; concurrency goes through "
                f"util::ThreadPool (src/util/parallel.hpp) or carries "
                f"`// lint: allow-thread-include(<why>)`; run `python3 "
                f"tools/analyze --rules raw-thread` for the construction "
                f"sites this include feeds"
            )


# ---- driver ------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: the src/ and examples/ trees, the "
        "only ones a rule applies to)",
    )
    args = parser.parse_args(argv)

    if args.paths:
        files = [pathlib.Path(p) for p in args.paths]
    else:
        files = []
        for tree in ("src", "examples"):
            files.extend(sorted((REPO / tree).rglob("*.hpp")))
            files.extend(sorted((REPO / tree).rglob("*.cpp")))

    findings: list[str] = []
    for path in files:
        if not path.is_file():
            print(f"lint.py: no such file: {path}", file=sys.stderr)
            return 2
        rel = str(path.resolve().relative_to(REPO)) if path.resolve().is_relative_to(REPO) else str(path)
        if rel.endswith(".hpp") and rel.startswith(RAW_DOUBLE_HEADER_DIRS):
            check_raw_double(path, rel, findings)
        check_raw_chrono(path, rel, findings)
        check_raw_ofstream(path, rel, findings)
        check_thread_include(path, rel, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"\nlint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint.py: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
