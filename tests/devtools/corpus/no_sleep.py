# corpus: no-sleep -> repro/core/waits.py
"""A real sleep outside the Clock seam."""
import time


def _poll():
    time.sleep(0.5)
