"""Structure-aware fuzz of the API boundary, driven by the route table.

Where ``tests/api/test_api.py`` replaces one declared field at a time
with a fixed list of wrong values, this replaces *several* at once with
arbitrary JSON — deep nesting, huge ints, NaN, numeric strings — on every
route the service registers.  Whatever arrives, the service answers
without a 5xx, every refusal is the error envelope, and a refused
request has changed nothing.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import schema
from tests.api import route_table
from tests.api.route_table import MISSING

_SERIAL = route_table.harness()
_SHARDED = route_table.harness(shards=4)
_DECLARED = _SERIAL.service.router.declarations()
_WELL_FORMED = route_table.well_formed(_DECLARED)

def _nest(depth: int, leaf: object) -> object:
    for _ in range(depth):
        leaf = [leaf]
    return leaf


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["5", "5.0", "-1", "nan", "inf", "1e400", "", MISSING]),
)
_values = st.one_of(
    st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=10,
    ),
    # One value under many levels of list: what recursion limits and
    # numpy's dimension limit meet first.
    st.builds(_nest, st.integers(1, 70), _scalars.filter(lambda v: v is not MISSING)),
)


def _slots(case: route_table.Case, declared: schema.Declaration) -> list[tuple]:
    """``(where, path)`` of every declared field of a well-formed request."""
    slots = []
    for where, fields, values in (
        ("path_values", declared.path.fields, case.path_values),
        ("params", declared.query.fields, case.params),
        ("body", case.fields, case.body),
    ):
        if values is not None:
            slots += [(where, path) for path, *_ in route_table.field_paths(fields, values)]
    return slots


@pytest.mark.parametrize("route", sorted(_DECLARED))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_request_is_a_5xx_and_a_refused_one_changes_nothing(route, data):
    declared = _DECLARED[route]
    bases = [case for case in _WELL_FORMED if case.route == route]
    harnesses = (_SERIAL, _SHARDED) if declared.body is schema.QUERY else (_SERIAL,)
    base = data.draw(st.sampled_from(bases))
    slots = _slots(base, declared)
    chosen = data.draw(st.lists(st.sampled_from(slots), max_size=4)) if slots else []
    for harness in harnesses:
        case = harness.resolve(base)
        changed = {
            where: copy.deepcopy(getattr(case, where))
            for where in ("path_values", "params", "body")
        }
        for where, path in chosen:
            value = data.draw(_values)
            if where == "path_values" and (value is MISSING or "/" in str(value)):
                continue  # that is another route, not this one malformed
            try:
                route_table.set_field(changed[where], path, value)
            except (KeyError, IndexError, TypeError):
                pass  # an earlier replacement already took the parent away
        if data.draw(st.integers(0, 9)) == 0 and case.body is not None:
            changed["body"] = data.draw(_values.filter(lambda v: v is not MISSING))
        case = route_table.replace(case, **changed)
        if not case.path.split("/")[-1]:
            continue  # an empty last segment matches a shorter template
        before = harness.state()
        response = harness.send(case)
        assert response.status < 500, (case, response.body)
        if not response.ok:
            route_table.assert_is_error_envelope(response)
            assert harness.state() == before, (case, response.body)


def _level(value: object) -> int | None:
    """The 0-255 level an upload's pixel value spells, or ``None``: a
    whole number however it is written, never a bool.  Kept apart from
    ``schema.PIXEL`` on purpose, like ``route_table``'s kinds."""
    if isinstance(value, bool):
        return None
    try:
        exact = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return int(exact) if exact.denominator == 1 and 0 <= exact <= 255 else None


_pixel_values = st.one_of(
    st.integers(-300, 600),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 256.0).map(round).map(float),
    st.booleans(),
    st.none(),
    st.sampled_from(["5", "5.0", "255", "256", "-1", "1.5", "x", "", "1e400", [1], {}]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_pixel_values, at=st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)))
def test_an_upload_is_stored_iff_every_pixel_value_is_a_level(value, at):
    row, column, channel = at
    pixels = [[[10 * row + column, 40, 80] for column in range(2)] for row in range(2)]
    pixels[row][column][channel] = value
    body = route_table.example(schema.ROUTES["POST /images"].body, "")
    body["image"] = {"pixels_u8": pixels}
    before = _SERIAL.state()
    response = _SERIAL.call("POST", "/images", body)
    if _level(value) is None:
        assert response.status == 400, (value, response.body)
        assert "'image.pixels_u8' must be" in response.body["error"]["message"]
        assert _SERIAL.state() == before
    else:
        assert response.status in (200, 201), (value, response.body)
        image_id = response.body["image_id"]
        stored = _SERIAL.service.platform.image(image_id).to_uint8()
        assert stored[row, column, channel] == _level(value)
