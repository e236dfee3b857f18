"""Tests for the whole-package symbol index."""

from __future__ import annotations

import ast
import textwrap

from tools.sketchlint.symbols import SymbolIndex


def _index(**sources: str) -> SymbolIndex:
    files = {
        f"{name}.py": ast.parse(textwrap.dedent(code))
        for name, code in sources.items()
    }
    return SymbolIndex.build(files)


def test_module_functions_and_methods_share_the_name_table():
    index = _index(
        facade="""
        class Facade:
            def heavy(self, k, policy=None):
                return heavy(self, k)
        """,
        tasks="""
        def heavy(sketch, k):
            return k
        """,
    )
    infos = index.functions_named("heavy")
    assert len(infos) == 2
    methods = [i for i in infos if i.is_method]
    functions = [i for i in infos if not i.is_method]
    assert methods[0].qualname == "Facade.heavy"
    assert methods[0].class_name == "Facade"
    assert functions[0].qualname == "heavy"
    assert functions[0].path == "tasks.py"


def test_param_names_cover_every_kind():
    index = _index(
        mod="""
        def f(a, b, *rest, c, **extra):
            return a
        """
    )
    info = index.functions_named("f")[0]
    assert info.param_names() == ["a", "b", "c", "rest", "extra"]
    assert info.positional_param_names() == ["a", "b"]
    assert info.has_param("extra")
    assert not info.has_param("missing")


def test_self_attributes_collect_all_assignment_forms():
    index = _index(
        sketch="""
        class Sketch:
            def __init__(self):
                self.table = []
                self._decode_cache = None

            def insert(self, key):
                self.insertions += 1

            def annotate(self):
                self.note: str = "x"
        """
    )
    (cls,) = index.classes_named("Sketch")
    assert cls.self_attributes == {
        "table",
        "_decode_cache",
        "insertions",
        "note",
    }
    assert set(cls.methods) == {"__init__", "insert", "annotate"}


def test_module_function_is_scoped_to_one_file():
    index = _index(
        a="def shared():\n    return 1\n",
        b="def shared():\n    return 2\n",
    )
    in_a = index.module_function("a.py", "shared")
    assert in_a is not None and in_a.path == "a.py"
    assert index.module_function("a.py", "absent") is None
    assert index.module_function("missing.py", "shared") is None
    assert len(index.functions_named("shared")) == 2


def test_nested_functions_are_not_indexed():
    index = _index(
        mod="""
        def outer():
            def inner():
                return 0
            return inner
        """
    )
    assert index.functions_named("outer")
    assert not index.functions_named("inner")
