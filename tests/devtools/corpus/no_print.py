# corpus: no-print -> repro/core/report.py
"""Library code reporting through print()."""


def _report(message):
    print(message)
