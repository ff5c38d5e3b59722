#!/usr/bin/env python3
"""mnsim-analyze: compile-database-driven semantic analyzer for MNSIM.

Run as `python3 tools/analyze` from the repo root (or anywhere, with
--repo). The compile database defines the analyzed translation-unit set
over src/, tests/, bench/ and examples/; nine rules guard the invariants
that keep the simulator's numbers trustworthy — numeric hygiene, seeded
randomness, diagnostic-code integrity (the MN-* catalogue has its only
check here), and the concurrency discipline (parallel-capture /
raw-thread / atomic-order) that complements the Clang -Wthread-safety
capability annotations. Each rule has its own scope; all but
unseeded-rng apply to src/ only (see docs/STATIC_ANALYSIS.md for the
catalogue and the escape/baseline workflow).

The rules run on an exact token stream (tools/analyze/cpptok.py):
immune to comments, strings and line splits, standard-library-only, so
every host runs the same analysis. There is no type information from
other files: floating-point operands are recognised from declarations
in the same file.

Exit status: 0 clean (baselined findings allowed), 1 new findings or a
stale baseline, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import compiledb
import cpptok
import engine
import rules_tokens
import sarif

VERSION = "1.0"
DEFAULT_ROOTS = ["src", "tests", "bench", "examples"]
DIAG_CATALOGUE = "docs/DIAGNOSTICS.md"


def build_contexts(files: list[pathlib.Path], repo: pathlib.Path,
                   errors: list[str]) -> dict[str, rules_tokens.FileContext]:
    contexts: dict[str, rules_tokens.FileContext] = {}
    for path in files:
        rel = path.relative_to(repo).as_posix()
        if rel in contexts:
            continue
        text = path.read_text()
        try:
            tokens = cpptok.tokenize(text)
        except cpptok.LexError as err:
            errors.append(f"{rel}: {err}")
            continue
        contexts[rel] = rules_tokens.make_context(rel, text, tokens)
    return contexts


def mn_code_findings(contexts: dict[str, rules_tokens.FileContext],
                     repo: pathlib.Path) -> list[engine.Finding]:
    """Cross-check string-literal MN-* codes against the catalogue."""
    emitted: dict[str, tuple[str, int, int]] = {}
    for rel in sorted(contexts):
        ctx = contexts[rel]
        if not rules_tokens.rule_applies("mn-code-extraction", rel):
            continue
        for code, (line, col) in rules_tokens.extract_mn_codes(ctx).items():
            emitted.setdefault(code, (rel, line, col))

    catalogue = repo / DIAG_CATALOGUE
    documented: dict[str, int] = {}
    if catalogue.is_file():
        for lineno, line in enumerate(catalogue.read_text().splitlines(), 1):
            for code in rules_tokens.MN_CODE.findall(line):
                documented.setdefault(code, lineno)

    findings: list[engine.Finding] = []
    for code in sorted(set(emitted) - set(documented)):
        rel, line, col = emitted[code]
        findings.append(engine.Finding(
            rule="mn-code-extraction", path=rel, line=line, col=col,
            message=(f"'{code}' is emitted from a string literal but not "
                     f"catalogued in {DIAG_CATALOGUE}; document the "
                     f"trigger and remedy"),
            line_text=contexts[rel].line_text(line),
        ))
    for code in sorted(set(documented) - set(emitted)):
        findings.append(engine.Finding(
            rule="mn-code-extraction", path=DIAG_CATALOGUE,
            line=documented[code], col=1,
            message=(f"'{code}' is catalogued but no string literal in "
                     f"src/ constructs it; remove the stale entry "
                     f"(codes are never reused)"),
            line_text="",
        ))
    return findings


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mnsim-analyze",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("-p", "--compile-db", default="build",
                        help="compile_commands.json or the build dir "
                             "containing it (default: build)")
    parser.add_argument("--repo", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--roots", nargs="*", default=DEFAULT_ROOTS,
                        help="repo-relative trees to analyze "
                             "(default: src tests bench examples)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--baseline", default="tools/analyze/baseline.json",
                        help="repo-relative baseline file")
    parser.add_argument("--write-baseline", metavar="REASON", default=None,
                        help="accept all current findings into the "
                             "baseline with this reason, then exit 0")
    parser.add_argument("--sarif", default=None,
                        help="write a SARIF 2.1.0 report to this path")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--version", action="version",
                        version=f"mnsim-analyze {VERSION}")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(rules_tokens.RULE_DOCS.items()):
            print(f"{rule}: {doc}")
        return 0

    repo = (pathlib.Path(args.repo).resolve() if args.repo
            else pathlib.Path(__file__).resolve().parent.parent.parent)

    selected = None
    if args.rules:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = selected - set(rules_tokens.RULE_DOCS)
        if unknown:
            print(f"mnsim-analyze: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    def rule_on(rule: str) -> bool:
        return selected is None or rule in selected

    try:
        tus = compiledb.load(repo / args.compile_db
                             if not pathlib.Path(args.compile_db).is_absolute()
                             else pathlib.Path(args.compile_db))
    except compiledb.CompileDbError as err:
        print(f"mnsim-analyze: {err}", file=sys.stderr)
        return 2

    tus = compiledb.select(tus, repo, args.roots)
    if not tus:
        print("mnsim-analyze: compile database has no translation units "
              f"under {', '.join(args.roots)}", file=sys.stderr)
        return 2

    lex_errors: list[str] = []
    files = tus + compiledb.header_pseudo_tus(repo, args.roots)
    contexts = build_contexts(files, repo, lex_errors)
    if lex_errors:
        for err in lex_errors:
            print(f"mnsim-analyze: cannot lex {err}", file=sys.stderr)
        return 2

    findings: list[engine.Finding] = []
    for rel in sorted(contexts):
        ctx = contexts[rel]
        for rule, check in rules_tokens.PER_FILE_CHECKS.items():
            if rule_on(rule) and rules_tokens.rule_applies(rule, rel):
                findings.extend(check(ctx))

    if rule_on("mn-code-extraction"):
        findings.extend(mn_code_findings(contexts, repo))

    # Escapes: filter rule findings, surface malformed escapes.
    filtered: list[engine.Finding] = []
    for rel in sorted(contexts):
        idx = engine.EscapeIndex(contexts[rel].text)
        filtered.extend(idx.escape_findings(rel, contexts[rel].text))
    for f in findings:
        ctx = contexts.get(f.path)
        if ctx is not None and engine.EscapeIndex(ctx.text).allows(
                f.rule, f.line):
            continue
        filtered.append(f)
    findings = filtered

    baseline_path = repo / args.baseline
    if args.write_baseline is not None:
        reason = args.write_baseline.strip()
        if not reason:
            print("mnsim-analyze: --write-baseline needs a non-empty "
                  "reason", file=sys.stderr)
            return 2
        engine.write_baseline(baseline_path,
                              engine.assign_fingerprints(findings), reason)
        print(f"mnsim-analyze: baselined {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    try:
        baseline = engine.load_baseline(baseline_path)
    except engine.BaselineError as err:
        print(f"mnsim-analyze: {err}", file=sys.stderr)
        return 2

    result = engine.classify(findings, baseline)
    result.files_analyzed = len(contexts)

    for f in result.new:
        print(f.render())
    for fp in result.stale_baseline:
        print(f"{args.baseline}: stale baseline entry {fp}: the finding "
              f"it excuses no longer exists; regenerate the baseline "
              f"(--write-baseline) so it keeps describing reality")

    status = "FAIL" if result.gate_failed else "ok"
    print(f"mnsim-analyze: {status} — {len(result.new)} new finding(s), "
          f"{len(result.baselined)} baselined, "
          f"{len(result.stale_baseline)} stale baseline entr(ies); "
          f"{result.files_analyzed} files, {len(tus)} TUs", file=sys.stderr)

    if args.sarif:
        pathlib.Path(args.sarif).write_text(sarif.render(
            result.new + result.baselined, tool_version=VERSION))

    return 1 if result.gate_failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
