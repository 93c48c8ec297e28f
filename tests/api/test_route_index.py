"""The route index against the scan it replaced.

``Router.resolve`` files routes by the shape of their template and reads
one bucket per request; before that, ``_dispatch_inner`` walked the
whole table in registration order calling ``_match`` on each route.  The
walk is kept here as the oracle: for the service's 26 routes and for
generated tables, whatever method and path arrive, the index names the
same template, handler and path parameters — or the same 404 / 405
label — as the walk, and looks at no more than two routes to do it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TVDP
from repro.api import TVDPService, http
from repro.api.http import Router, UNMATCHED
from tests.api import route_table


def linear_scan(router: Router, method: str, path: str) -> tuple:
    """What the scan of the table in registration order resolves
    ``method path`` to (the body of the old ``_dispatch_inner``)."""
    path_template = None  # first template the path fits
    segments = http._segments(path)
    for route_method, template, route_segments, handler, declaration in router._routes:
        params = http._match(route_segments, segments)
        if params is None:
            continue
        path_template = path_template or template
        if route_method == method:
            return template, handler, declaration, params
    return path_template or UNMATCHED, None, None, None


@pytest.fixture()
def counted_matches(monkeypatch):
    calls = []
    real = http._match

    def counting(template, path):
        calls.append(template)
        return real(template, path)

    monkeypatch.setattr(http, "_match", counting)
    return calls


_SERVICE = TVDPService(TVDP())
_ROUTES = [route.split(" ") for route in _SERVICE.router.routes()]
_METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH"])
#: Segments a hostile or clumsy client sends: the table's own literals,
#: its ``{param}`` segments verbatim, values, and nothing at all.
_LITERALS = sorted({s for _, template in _ROUTES for s in http._segments(template)})
_SEGMENTS = st.sampled_from(_LITERALS + ["7", "x", "", "{}", "{image_id}x"])


def _filled(template: str, value: str) -> str:
    return "/".join(
        value if s.startswith("{") and s.endswith("}") else s for s in template.split("/")
    )


@st.composite
def _requests(draw) -> tuple[str, str]:
    """A method and a path: a declared route's own, or one of it with a
    segment added, dropped, emptied or swapped, or segments at random."""
    method, template = draw(st.sampled_from(_ROUTES))
    parts = _filled(template, draw(_SEGMENTS)).split("/")[1:]
    change = draw(st.sampled_from(["none", "extra", "missing", "swap", "random", "slash"]))
    if change == "extra":
        parts.insert(draw(st.integers(0, len(parts))), draw(_SEGMENTS))
    elif change == "missing":
        del parts[draw(st.integers(0, len(parts) - 1))]
    elif change == "swap":
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_SEGMENTS)
    elif change == "random":
        parts = draw(st.lists(_SEGMENTS, max_size=5))
    elif change == "slash":
        parts.append("")
    if draw(st.booleans()):
        method = draw(_METHODS)
    return method, "/" + "/".join(parts)


class TestAgainstTheLinearScan:
    @pytest.mark.parametrize("method, template", _ROUTES)
    def test_every_declared_route_resolves_to_itself_in_two_matches_at_most(
        self, method, template, counted_matches
    ):
        router = _SERVICE.router
        path = _filled(template, "7")
        expected = linear_scan(router, method, path)
        del counted_matches[:]
        assert router.resolve(method, path) == expected
        assert len(counted_matches) <= 2
        assert expected[0] == template and expected[1] is not None

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(sent=_requests())
    def test_whatever_arrives_resolves_as_the_scan_resolves_it(self, sent):
        method, path = sent
        router = _SERVICE.router
        assert router.resolve(method, path) == linear_scan(router, method, path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        templates=st.lists(
            st.tuples(
                st.sampled_from(["GET", "POST"]),
                st.lists(st.sampled_from(["a", "b", "{x}", "{y}"]), max_size=3),
            ),
            max_size=8,
        ),
        probes=st.lists(
            st.tuples(
                st.sampled_from(["GET", "POST", "PUT"]),
                st.lists(st.sampled_from(["a", "b", "c", "{x}", ""]), max_size=4),
            ),
            max_size=8,
        ),
    )
    def test_generated_tables_too_where_shapes_overlap(self, templates, probes):
        """Templates that differ only in where their parameters sit fit
        the same paths: the first registered still wins."""
        router = Router()
        for number, (method, segments) in enumerate(templates):
            router.add(method, "/" + "/".join(segments), lambda r, n=number: n)
        for method, segments in probes:
            path = "/" + "/".join(segments)
            assert router.resolve(method, path) == linear_scan(router, method, path)


@pytest.fixture(scope="module")
def h():
    return route_table.harness()


class TestOpenRoutes:
    """Openness is the matched template's, declared in ``ROUTES``."""

    def test_the_open_routes_are_the_four_declared_so(self):
        declared = _SERVICE.router.declarations()
        assert sorted(route for route, d in declared.items() if d.open) == [
            "GET /health", "GET /metrics", "POST /keys", "POST /users",
        ]

    @pytest.mark.parametrize("path", ["/health", "/health/", "//health"])
    def test_a_path_that_matches_an_open_route_is_open_however_it_is_spelt(self, h, path):
        response = h.service.handle(http.Request("GET", path))
        assert response.status == 200, response.body

    def test_users_with_a_trailing_slash_needs_no_key(self, h):
        body = {"name": "a", "role": "b"}
        plain = h.service.handle(http.Request("POST", "/users", body=dict(body)))
        slashed = h.service.handle(http.Request("POST", "/users/", body=dict(body)))
        assert (plain.status, slashed.status) == (201, 201)

    @pytest.mark.parametrize(
        "method, path", [("GET", "/nothing"), ("DELETE", "/health"), ("GET", "/stats/")]
    )
    def test_anything_else_is_asked_for_a_key_first(self, h, method, path):
        response = h.service.handle(http.Request(method, path))
        assert response.status == 401
        route_table.assert_is_error_envelope(response)
