"""Whole-program symbol table and call graph construction."""

from __future__ import annotations

import pytest

from repro.devtools.callgraph import build_call_graph, build_symbol_table


@pytest.fixture
def build(make_package):
    def _build(files):
        root, modules = make_package(files)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        return table, graph

    return _build


class TestSymbolTable:
    def test_indexes_functions_classes_methods(self, build):
        table, _ = build(
            {
                "core/engine.py": """
                    class Engine:
                        def start(self):
                            return 1

                        def _spin(self):
                            return 2

                    def helper():
                        return 3
                """,
            }
        )
        assert table.symbols["pkg.core.engine.Engine"].kind == "class"
        assert table.symbols["pkg.core.engine.Engine.start"].kind == "method"
        assert table.symbols["pkg.core.engine.helper"].kind == "function"
        assert table.symbols["pkg.core.engine.Engine._spin"].is_public is False

    def test_resolves_reexports_through_init(self, build):
        table, _ = build(
            {
                "core/engine.py": "class Engine:\n    def start(self):\n        return 1\n",
                "core/__init__.py": "from pkg.core.engine import Engine\n",
            }
        )
        assert table.resolve_export("pkg.core.Engine") == "pkg.core.engine.Engine"

    def test_method_lookup_follows_base_classes(self, build):
        table, _ = build(
            {
                "a.py": "class Base:\n    def ping(self):\n        return 1\n",
                "b.py": (
                    "from pkg.a import Base\n"
                    "\n"
                    "class Child(Base):\n"
                    "    pass\n"
                ),
            }
        )
        assert table.method_on("pkg.b.Child", "ping") == "pkg.a.Base.ping"


class TestCallGraph:
    def test_direct_and_self_calls_resolve(self, build):
        _, graph = build(
            {
                "m.py": """
                    def low():
                        return 1

                    class Box:
                        def outer(self):
                            return self.inner() + low()

                        def inner(self):
                            return 2
                """,
            }
        )
        callees = graph.callees("pkg.m.Box.outer")
        assert "pkg.m.Box.inner" in callees
        assert "pkg.m.low" in callees

    def test_constructor_calls_edge_to_init(self, build):
        _, graph = build(
            {
                "m.py": """
                    class Thing:
                        def __init__(self):
                            self.x = 1

                    def make():
                        return Thing()
                """,
            }
        )
        assert "pkg.m.Thing.__init__" in graph.callees("pkg.m.make")

    def test_return_annotation_chaining(self, build):
        """``registry().counter()`` resolves through the accessor's
        return annotation to the class method."""
        _, graph = build(
            {
                "metrics.py": """
                    class Registry:
                        def counter(self, name: str):
                            return name

                    _r = Registry()

                    def registry() -> Registry:
                        return _r

                    def use():
                        return registry().counter("hits")
                """,
            }
        )
        assert "pkg.metrics.Registry.counter" in graph.callees("pkg.metrics.use")

    def test_module_variable_type_inference(self, build):
        _, graph = build(
            {
                "m.py": """
                    class Tracer:
                        def add(self):
                            return 1

                    _tracer = Tracer()

                    def wire():
                        _tracer.add()
                """,
            }
        )
        assert "pkg.m.Tracer.add" in graph.callees("pkg.m.wire")

    def test_parameter_annotation_dispatch(self, build):
        _, graph = build(
            {
                "m.py": """
                    class Sink:
                        def push(self, item):
                            return item

                    def feed(sink: Sink):
                        sink.push(1)
                """,
            }
        )
        assert "pkg.m.Sink.push" in graph.callees("pkg.m.feed")

    def test_unresolved_calls_kept_as_sites(self, build):
        _, graph = build(
            {
                "m.py": """
                    def f():
                        return open("x")
                """,
            }
        )
        sites = graph.sites_by_caller["pkg.m.f"]
        assert any(s.raw == "open" and s.callee is None for s in sites)

    def test_reachability(self, build):
        _, graph = build(
            {
                "m.py": """
                    def a():
                        return b()

                    def b():
                        return c()

                    def c():
                        return 1

                    def island():
                        return 2
                """,
            }
        )
        reachable = graph.reachable(("pkg.m.a",))
        assert {"pkg.m.a", "pkg.m.b", "pkg.m.c"} <= reachable
        assert "pkg.m.island" not in reachable


class TestInferenceBlindSpots:
    """Decorators, @property accessors, functools.partial, and container
    element types — the shapes the shard-readiness passes lean on."""

    def test_decorators_recorded_on_symbols(self, build):
        table, _ = build(
            {
                "m.py": """
                    import functools

                    def wrap(fn):
                        return fn

                    class Box:
                        @property
                        def size(self) -> int:
                            return 1

                        @functools.cached_property
                        def heavy(self) -> int:
                            return 2

                    @wrap
                    def decorated():
                        return 3
                """,
            }
        )
        assert table.symbols["pkg.m.Box.size"].decorators == ("property",)
        assert table.symbols["pkg.m.Box.size"].is_property
        assert table.symbols["pkg.m.Box.heavy"].is_property
        assert table.symbols["pkg.m.decorated"].decorators == ("wrap",)
        assert not table.symbols["pkg.m.decorated"].is_property

    def test_decorated_function_still_resolves_as_callee(self, build):
        _, graph = build(
            {
                "m.py": """
                    def wrap(fn):
                        return fn

                    @wrap
                    def target():
                        return 1

                    def caller():
                        return target()
                """,
            }
        )
        assert "pkg.m.target" in graph.callees("pkg.m.caller")

    def test_property_return_annotation_chains(self, build):
        """``self.owner.store.put()`` resolves through an annotated
        @property accessor, not just plain attribute types."""
        _, graph = build(
            {
                "m.py": """
                    class Store:
                        def put(self, item):
                            return item

                    class Owner:
                        @property
                        def store(self) -> Store:
                            return Store()

                    class User:
                        def __init__(self):
                            self.owner = Owner()

                        def go(self):
                            self.owner.store.put(1)
                """,
            }
        )
        assert "pkg.m.Store.put" in graph.callees("pkg.m.User.go")

    def test_functools_partial_adds_edge(self, build):
        _, graph = build(
            {
                "m.py": """
                    import functools

                    def worker(tag, item):
                        return (tag, item)

                    def bind():
                        return functools.partial(worker, "hot")
                """,
            }
        )
        assert "pkg.m.worker" in graph.callees("pkg.m.bind")

    def test_bare_partial_import_adds_edge(self, build):
        _, graph = build(
            {
                "m.py": """
                    from functools import partial

                    def worker(item):
                        return item

                    def bind():
                        return partial(worker)
                """,
            }
        )
        assert "pkg.m.worker" in graph.callees("pkg.m.bind")

    def test_container_element_annotation_types_subscript_reads(self, build):
        """``self._lsh: dict[str, LSH]`` makes ``self._lsh[k].query()``
        resolve — the platform's per-extractor index maps."""
        table, graph = build(
            {
                "m.py": """
                    class LSH:
                        def query(self, v):
                            return v

                    class Platform:
                        def __init__(self):
                            self._lsh: dict[str, LSH] = {}

                        def run(self, name, v):
                            index = self._lsh[name]
                            return index.query(v)
                """,
            }
        )
        assert table.attr_elem_types["pkg.m.Platform"]["_lsh"] == "pkg.m.LSH"
        assert "pkg.m.LSH.query" in graph.callees("pkg.m.Platform.run")


def test_every_root_pattern_names_a_function_of_the_tree():
    # expand_roots drops a pattern that matches nothing without a word:
    # a renamed entry point would leave its closure quietly unchecked.
    from pathlib import Path

    from repro.devtools.callgraph import expand_roots
    from repro.devtools.findings import collect_modules
    from repro.devtools.hotpath import DEFAULT_DATA_PLANE_ROOTS
    from repro.devtools.threadescape import DEFAULT_CONCURRENT_ROOTS

    repo = Path(__file__).resolve().parents[2]
    src_root = repo / "src" / "repro"
    table = build_symbol_table(collect_modules(src_root, repo_root=repo), src_root)
    for pattern in (*DEFAULT_DATA_PLANE_ROOTS, *DEFAULT_CONCURRENT_ROOTS):
        assert expand_roots(table, [pattern]), f"root {pattern!r} names nothing"
