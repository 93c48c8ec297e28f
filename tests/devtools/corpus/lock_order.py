# corpus: lock-order -> repro/core/locks.py
"""Two locks taken in both orders."""
import threading

_a = threading.Lock()
_b = threading.Lock()


def _ab():
    with _a:
        with _b:
            pass


def _ba():
    with _b:
        with _a:
            pass
