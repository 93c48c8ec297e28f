"""Correctness lints: broad except, mutable defaults, print, geo ranges."""

from __future__ import annotations

from repro.devtools.lint import run_lints


class TestBroadExcept:
    def test_swallowing_handler_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/swallow.py": """
                def load(path):
                    try:
                        return open(path).read()
                    except Exception:
                        return None
                """
            }
        )
        findings = run_lints(modules, ("broad-except",))
        assert [f.rule for f in findings] == ["broad-except"]
        assert findings[0].scope == "load"

    def test_bare_except_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/bare.py": """
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        pass
                """
            }
        )
        assert len(run_lints(modules, ("broad-except",))) == 1

    def test_reraising_translation_passes(self, make_package):
        _, modules = make_package(
            {
                "low/translate.py": """
                def parse(payload):
                    try:
                        return int(payload)
                    except Exception as exc:
                        raise ValueError(f"bad payload: {exc}") from exc
                """
            }
        )
        assert run_lints(modules, ("broad-except",)) == []

    def test_logging_handler_passes(self, make_package):
        _, modules = make_package(
            {
                "low/logged.py": """
                import logging

                def attempt(fn):
                    try:
                        return fn()
                    except Exception:
                        logging.getLogger(__name__).exception("attempt failed")
                        return None
                """
            }
        )
        assert run_lints(modules, ("broad-except",)) == []

    def test_counting_handler_passes(self, make_package):
        _, modules = make_package(
            {
                "low/counted.py": """
                def attempt(fn, errors):
                    try:
                        return fn()
                    except Exception:
                        errors.inc()
                        return None
                """
            }
        )
        assert run_lints(modules, ("broad-except",)) == []

    def test_narrow_handler_passes(self, make_package):
        _, modules = make_package(
            {
                "low/narrow.py": """
                def parse(payload):
                    try:
                        return int(payload)
                    except (TypeError, ValueError):
                        return None
                """
            }
        )
        assert run_lints(modules, ("broad-except",)) == []


class TestMutableDefault:
    def test_list_default_flagged(self, make_package):
        _, modules = make_package(
            {"low/defaults.py": "def collect(item, into=[]):\n    into.append(item)\n"}
        )
        findings = run_lints(modules, ("mutable-default",))
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_dict_call_and_kwonly_defaults_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/defaults.py": (
                    "def configure(*, options=dict(), tags=set()):\n    return options, tags\n"
                )
            }
        )
        assert len(run_lints(modules, ("mutable-default",))) == 2

    def test_none_and_tuple_defaults_pass(self, make_package):
        _, modules = make_package(
            {"low/defaults.py": "def collect(item, into=None, shape=(1, 2)):\n    return item\n"}
        )
        assert run_lints(modules, ("mutable-default",)) == []


class TestNoPrint:
    def test_print_call_flagged(self, make_package):
        _, modules = make_package(
            {"low/noisy.py": "def report(x):\n    print(x)\n"}
        )
        findings = run_lints(modules, ("no-print",))
        assert [f.rule for f in findings] == ["no-print"]
        assert "repro.obs" in findings[0].message

    def test_method_named_print_passes(self, make_package):
        _, modules = make_package(
            {"low/quiet.py": "def report(doc):\n    doc.print()\n"}
        )
        assert run_lints(modules, ("no-print",)) == []

    def test_inline_allow_suppresses(self, make_package):
        _, modules = make_package(
            {
                "low/sanctioned.py": (
                    "def report(x):\n"
                    "    # devtools: allow[no-print]\n"
                    "    print(x)\n"
                )
            }
        )
        assert run_lints(modules, ("no-print",)) == []

    def test_allow_marker_in_a_docstring_is_not_an_allow(self, make_package):
        _, modules = make_package(
            {
                "low/quoted.py": (
                    "def report(message):\n"
                    '    """Say it.  # devtools: allow[no-print]"""\n'
                    "    print(message)\n"
                )
            }
        )
        assert [f.line for f in run_lints(modules, ("no-print",))] == [3]

    def test_allow_marker_in_a_string_literal_is_not_an_allow(self, make_package):
        _, modules = make_package(
            {
                "low/quoted.py": (
                    "def report(message):\n"
                    '    text = "# devtools: allow[no-print]"\n'
                    "    print(message, text)\n"
                )
            }
        )
        assert [f.line for f in run_lints(modules, ("no-print",))] == [3]


class TestGeoRange:
    def test_transposed_positional_args_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/sites.py": """
                from pkg.low.geo import GeoPoint

                CITY_HALL = GeoPoint(-118.24, 34.05)
                """
            }
        )
        findings = run_lints(modules, ("geo-range",))
        assert [f.rule for f in findings] == ["geo-range"]
        assert "transposed" in findings[0].message

    def test_bad_keyword_flagged(self, make_package):
        _, modules = make_package(
            {"low/sites.py": "def probe(q):\n    return q.near(lat=34.0, lng=241.76)\n"}
        )
        findings = run_lints(modules, ("geo-range",))
        assert [f.rule for f in findings] == ["geo-range"]
        assert "longitude" in findings[0].message

    def test_valid_coordinates_pass(self, make_package):
        _, modules = make_package(
            {
                "low/sites.py": """
                from pkg.low.geo import BoundingBox, GeoPoint

                LA = GeoPoint(34.05, -118.24)
                BLOCK = BoundingBox(34.035, -118.26, 34.05, -118.24)
                """
            }
        )
        assert run_lints(modules, ("geo-range",)) == []

    def test_non_literal_args_ignored(self, make_package):
        _, modules = make_package(
            {
                "low/sites.py": """
                from pkg.low.geo import GeoPoint

                def locate(lat, lng):
                    return GeoPoint(lat, lng)
                """
            }
        )
        assert run_lints(modules, ("geo-range",)) == []
