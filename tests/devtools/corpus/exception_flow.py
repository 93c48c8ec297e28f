# corpus: exception-flow -> repro/api/entry.py
"""A public api entry point raising outside the taxonomy."""


def handle(request):
    if request is None:
        raise RuntimeError("no request")
    return request


_ROUTES = {"/": handle}
