# corpus: blocking-in-handler -> repro/api/web.py
"""File IO inside a routed handler."""


class _WebService:
    def __init__(self, router):
        router.add("GET", "/dump", self._dump)

    def _dump(self, request):
        with open("/tmp/state.json") as handle:
            return handle.read()
