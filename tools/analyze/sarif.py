"""Minimal SARIF 2.1.0 emitter for mnsim-analyze.

Only the slice of the schema CI artifact viewers and code-scanning
ingesters actually read: tool metadata with the rule catalogue, one
result per finding with a physical location and a stable fingerprint
(the same fingerprint the baseline uses, so a SARIF diff and a baseline
diff agree).
"""

from __future__ import annotations

import json

from engine import Finding, assign_fingerprints
from rules_tokens import RULE_DOCS

SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
          "Schemata/sarif-schema-2.1.0.json")

# Rule documentation anchors; code-scanning UIs surface helpUri as the
# "learn more" link on each annotation. Repo-relative like
# informationUri: the docs travel with the commit being annotated.
DOCS_URI = "docs/STATIC_ANALYSIS.md"


def rule_help_uri(rule: str) -> str:
    return f"{DOCS_URI}#{rule}"


def render(findings: list[Finding], *, tool_version: str) -> str:
    by_fp = assign_fingerprints(list(findings))
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": doc},
            "helpUri": rule_help_uri(rule),
            "defaultConfiguration": {"level": "error"},
        }
        for rule, doc in sorted(RULE_DOCS.items())
    ]
    results = []
    for fp, f in sorted(by_fp.items(), key=lambda kv: (
            kv[1].path, kv[1].line, kv[1].col, kv[1].rule)):
        results.append({
            "ruleId": f.rule,
            "level": "note" if f.baselined else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": f.line,
                        "startColumn": f.col,
                        # Exact token span when the rule recorded one;
                        # the col+1 fallback still satisfies viewers
                        # that require endColumn > startColumn.
                        "endColumn": f.end_col if f.end_col > f.col
                        else f.col + 1,
                    },
                }
            }],
            "partialFingerprints": {"mnsimAnalyze/v1": fp},
            "properties": {"baselined": f.baselined},
        })
    doc = {
        "$schema": SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "mnsim-analyze",
                    "version": tool_version,
                    "informationUri":
                        "docs/STATIC_ANALYSIS.md#mnsim-analyze",
                    "rules": rules,
                }
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2) + "\n"
