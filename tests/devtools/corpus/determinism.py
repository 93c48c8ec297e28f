# corpus: determinism -> repro/core/jitter.py
"""The process-global RNG on a result path."""
import random


def _jitter():
    return random.random()
