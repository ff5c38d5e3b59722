"""mnsim-analyze core: findings, escape comments, baseline, rule driver.

Severity model: every finding is a gate failure unless it is
  * escaped in the source with `// mnsim-analyze: allow(<rule>, <why>)`
    on the same or the previous line (the why is mandatory), or
  * recorded in the checked-in baseline file with a written reason.

Baseline entries are keyed by a content fingerprint (rule + file +
normalized line text + occurrence index), not by line number, so
unrelated edits above a baselined finding do not invalidate it while any
edit to the flagged line itself re-surfaces the finding for review.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import re
from collections import defaultdict

ESCAPE_RE = re.compile(
    r"mnsim-analyze:\s*allow\(\s*(?P<rule>[\w*-]+)\s*,\s*(?P<why>[^)]*\S)\s*\)"
)
# An allow() with a missing reason is itself a finding: silent escapes are
# exactly what the escape syntax exists to prevent.
ESCAPE_NO_WHY_RE = re.compile(
    r"mnsim-analyze:\s*allow\(\s*(?P<rule>[\w*-]+)\s*(?:,\s*)?\)"
)


@dataclasses.dataclass
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    line_text: str = ""  # the source line, for fingerprints and reports
    # One-past-the-end column of the flagged token, for exact-span SARIF
    # regions (endColumn). 0 = unknown; exporters fall back to col + 1.
    end_col: int = 0
    baselined: bool = False

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule}: {self.message}"


def _normalize(line_text: str) -> str:
    return " ".join(line_text.split())


def fingerprint(rule: str, path: str, line_text: str, occurrence: int) -> str:
    h = hashlib.sha256(
        f"{rule}\0{path}\0{_normalize(line_text)}\0{occurrence}".encode()
    ).hexdigest()[:16]
    return f"{rule}:{path}:{h}"


def assign_fingerprints(findings: list[Finding]) -> dict[str, Finding]:
    """Fingerprint every finding, disambiguating identical lines by order."""
    seen: dict[tuple[str, str, str], int] = defaultdict(int)
    out: dict[str, Finding] = {}
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule)):
        key = (f.rule, f.path, _normalize(f.line_text))
        fp = fingerprint(f.rule, f.path, f.line_text, seen[key])
        seen[key] += 1
        out[fp] = f
    return out


# ---- escape comments ---------------------------------------------------------


class EscapeIndex:
    """Escape comments of one file: rule -> set of lines they cover.

    An escape on line N covers findings on line N and line N+1, so both
    trailing-comment and previous-line placements work; a previous-line
    escape at the very start of a file (line 1 covering line 2 and the
    degenerate "line 1" itself) needs no special case.
    """

    def __init__(self, text: str):
        self._covered: dict[str, set[int]] = defaultdict(set)
        self.malformed: list[tuple[int, str]] = []  # (line, rule)
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in ESCAPE_RE.finditer(line):
                self._covered[m.group("rule")].update((lineno, lineno + 1))
            for m in ESCAPE_NO_WHY_RE.finditer(line):
                self.malformed.append((lineno, m.group("rule")))

    def allows(self, rule: str, line: int) -> bool:
        return line in self._covered[rule]

    def escape_findings(self, path: str, text: str) -> list[Finding]:
        lines = text.splitlines()
        return [
            Finding(
                rule="malformed-escape",
                path=path,
                line=lineno,
                col=1,
                message=(
                    f"allow({rule}) without a reason; write "
                    f"`mnsim-analyze: allow({rule}, <why>)` — escapes "
                    f"must say why"
                ),
                line_text=lines[lineno - 1] if lineno <= len(lines) else "",
            )
            for lineno, rule in self.malformed
        ]


# ---- baseline ----------------------------------------------------------------


class BaselineError(ValueError):
    pass


def load_baseline(path: pathlib.Path) -> dict[str, dict]:
    """fingerprint -> entry. Every entry must carry a written reason."""
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise BaselineError(f"{path}: not valid JSON: {err}") from err
    entries = data.get("findings")
    if not isinstance(entries, list):
        raise BaselineError(f"{path}: expected a top-level 'findings' list")
    out: dict[str, dict] = {}
    for entry in entries:
        fp = entry.get("fingerprint")
        reason = (entry.get("reason") or "").strip()
        if not fp:
            raise BaselineError(f"{path}: entry without a fingerprint: {entry}")
        if not reason:
            raise BaselineError(
                f"{path}: baselined finding {fp} has no reason; every "
                f"baseline entry must say why it is acceptable"
            )
        out[fp] = entry
    return out


def write_baseline(path: pathlib.Path, findings: dict[str, Finding],
                   reason: str) -> None:
    entries = [
        {
            "fingerprint": fp,
            "rule": f.rule,
            "location": f.location(),
            "summary": _normalize(f.line_text)[:100],
            "reason": reason,
        }
        for fp, f in sorted(findings.items(), key=lambda kv: kv[0])
    ]
    path.write_text(
        json.dumps({"findings": entries}, indent=2, sort_keys=False) + "\n"
    )


# ---- result classification ---------------------------------------------------


@dataclasses.dataclass
class RunResult:
    new: list[Finding]
    baselined: list[Finding]
    stale_baseline: list[str]  # fingerprints no longer matched
    files_analyzed: int = 0

    @property
    def gate_failed(self) -> bool:
        # Stale baseline entries fail the gate too: they mean the baseline
        # no longer describes reality and must be regenerated consciously.
        return bool(self.new or self.stale_baseline)


def classify(findings: list[Finding], baseline: dict[str, dict]) -> RunResult:
    by_fp = assign_fingerprints(findings)
    new: list[Finding] = []
    baselined: list[Finding] = []
    for fp, f in by_fp.items():
        if fp in baseline:
            f.baselined = True
            baselined.append(f)
        else:
            new.append(f)
    stale = sorted(set(baseline) - set(by_fp))
    new.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    baselined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return RunResult(new=new, baselined=baselined, stale_baseline=stale)
