"""SARIF 2.1.0 export and GitHub workflow annotations for check runs.

CI uploads the SARIF document as an artifact (and code-scanning UIs can
ingest it directly); the annotation lines use GitHub's workflow-command
syntax so new findings surface inline on the pull-request diff.
"""

from __future__ import annotations

from repro.devtools.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

def to_sarif(findings: list[Finding], rules: dict[str, str]) -> dict:
    """A single-run SARIF document for ``findings``; ``rules`` maps
    each rule id that ran to its one-line summary."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.devtools.check",
                        "informationUri": "docs/static_analysis.md",
                        "rules": [
                            {"id": rule, "shortDescription": {"text": summary}}
                            for rule, summary in rules.items()
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "level": "error",
                        "message": {"text": finding.message},
                        "partialFingerprints": {
                            "devtoolsFingerprint/v1": finding.fingerprint
                        },
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": finding.path},
                                    "region": {"startLine": max(1, finding.line)},
                                }
                            }
                        ],
                    }
                    for finding in findings
                ],
            }
        ],
    }


def _sanitize(text: str) -> str:
    """Escape the characters GitHub's command parser treats specially."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def github_annotations(findings: list[Finding]) -> list[str]:
    """``::error`` workflow-command lines, one per finding."""
    return [
        f"::error file={_sanitize(f.path)},line={max(1, f.line)},"
        f"title={_sanitize(f.rule)}::{_sanitize(f.message)}"
        for f in findings
    ]
