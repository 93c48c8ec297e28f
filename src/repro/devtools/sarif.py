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

#: One-line rule descriptions for the SARIF rule metadata.
RULE_DESCRIPTIONS: dict[str, str] = {
    "layer-boundary": "Import crosses the declared layer DAG.",
    "module-mutable-state": "Module-level mutable state mutated outside a lock.",
    "unlocked-mutation": "Unlocked self-state mutation in a concurrency-critical module.",
    "broad-except": "Broad exception handler swallows errors.",
    "mutable-default": "Mutable default argument.",
    "no-print": "print() in library code (use repro.obs logging).",
    "geo-range": "Latitude/longitude literal out of range.",
    "no-sleep": "Raw sleep in library code (use the Clock seam).",
    "lock-order": "Lock-order inversion or lock held across blocking work.",
    "exception-flow": "Exception escaping an entry point outside the taxonomy.",
    "determinism": "Nondeterminism (clock, RNG, set order) on a result path.",
    "dead-code": "Unreferenced public symbol.",
    "hot-path": "Per-item work on a query path outside the cost model.",
    "thread-escape": "Shared mutable state mutated without a consistent lock on a concurrent path.",
    "atomicity": "Check-then-act / read-modify-write gap on lock-guarded shared state.",
    "blocking-in-handler": "Blocking call reachable from an HTTP handler.",
}


def to_sarif(findings: list[Finding], rules: tuple[str, ...]) -> dict:
    """A single-run SARIF document for ``findings``."""
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
                            {
                                "id": rule,
                                "shortDescription": {
                                    "text": RULE_DESCRIPTIONS.get(rule, rule)
                                },
                            }
                            for rule in rules
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
