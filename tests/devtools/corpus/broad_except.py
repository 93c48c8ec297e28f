# corpus: broad-except -> repro/core/swallow.py
"""A broad handler that neither re-raises, logs, nor counts."""


def _attempt(fn):
    try:
        return fn()
    except Exception:
        return None
