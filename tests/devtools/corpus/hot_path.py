# corpus: hot-path -> repro/core/platform.py
"""A sort per group inside the query executor's loop."""


class TVDP:
    def execute(self, query):
        out = []
        for group in query.groups:
            out.extend(sorted(group))
        return out


def _platform() -> TVDP:
    return TVDP()
