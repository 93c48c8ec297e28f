# corpus: thread-escape -> repro/core/platform.py
"""A shared class whose public method writes self state outside its
lock — the bug pattern the retired ``unlocked-mutation`` heuristic
matched by file glob, decided here by reachability from a concurrent
root and real lock resolution."""
import threading


class _Index:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def insert(self, item):
        self._items.append(item)

    def drop(self, item):
        with self._lock:
            self._items.remove(item)
            self._compact()

    def _compact(self):
        self._items.sort()  # every caller holds the lock


class TVDP:
    def __init__(self):
        self._index = _Index()

    def execute(self, query):
        self._index.insert(query)
        self._index.drop(query)
        return True


def _platform() -> TVDP:
    return TVDP()
