# corpus: atomicity -> repro/core/platform.py
"""Writers hold the lock; one reader traverses without it."""
import threading


class _Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def put(self, key, value):
        with self._lock:
            self._data[key] = value

    def size(self):
        return len(self._data)


class TVDP:
    def __init__(self):
        self._store = _Store()

    def execute(self, query):
        self._store.put(query, self._store.size())
        return True


def _platform() -> TVDP:
    return TVDP()
