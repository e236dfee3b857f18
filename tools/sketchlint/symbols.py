"""A whole-package symbol index for interprocedural sketchlint rules.

One pass over every file being linted collects:

* every module-level function and every class with its methods, as
  :class:`FunctionInfo` records carrying the AST node, the owning class
  (if any) and the parameter list;
* per class, the set of ``self.<attr>`` names assigned anywhere in its
  methods.

Lookup is by simple name — the package under analysis is small and its
style keeps function names unique per purpose (``to_state``,
``heavy_changers`` ...), so name-based resolution plus the caller's
module context is precise enough for the contract rules, and deliberately
*conservative*: a name that resolves to several functions is reported via
:meth:`SymbolIndex.functions_named` and rules decide how to merge.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

FunctionNode = ast.FunctionDef  # async defs are folded in via _FUNC_NODES
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class FunctionInfo:
    """One function or method definition, with its context."""

    __slots__ = ("name", "qualname", "node", "path", "class_name")

    def __init__(
        self,
        name: str,
        qualname: str,
        node: ast.AST,
        path: str,
        class_name: Optional[str],
    ) -> None:
        self.name = name
        self.qualname = qualname
        self.node = node
        self.path = path
        self.class_name = class_name

    # ------------------------------------------------------------------ #
    @property
    def args(self) -> ast.arguments:
        args = getattr(self.node, "args", None)
        if not isinstance(args, ast.arguments):  # pragma: no cover - guard
            return ast.arguments(
                posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]
            )
        return args

    def param_names(self) -> List[str]:
        args = self.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names

    def positional_param_names(self) -> List[str]:
        args = self.args
        return [a.arg for a in args.posonlyargs + args.args]

    def has_param(self, name: str) -> bool:
        return name in self.param_names()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname} @ {self.path})"


class ClassInfo:
    """One class definition: its methods and the self-attributes it binds."""

    __slots__ = ("name", "node", "path", "methods", "self_attributes")

    def __init__(self, name: str, node: ast.ClassDef, path: str) -> None:
        self.name = name
        self.node = node
        self.path = path
        self.methods: Dict[str, FunctionInfo] = {}
        #: every attribute name assigned as ``self.<attr> = ...`` (or via
        #: AugAssign/AnnAssign) anywhere in the class body
        self.self_attributes: Set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.name} @ {self.path})"


class ModuleInfo:
    """One parsed module: its tree plus the symbols defined in it."""

    __slots__ = ("path", "tree", "functions", "classes")

    def __init__(self, path: str, tree: ast.AST) -> None:
        self.path = path
        self.tree = tree
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}


def _self_attribute_stores(func: ast.AST) -> Iterator[str]:
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr


class SymbolIndex:
    """Package-wide lookup tables built from every linted file."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, files: Dict[str, ast.AST]) -> "SymbolIndex":
        index = cls()
        for path, tree in files.items():
            index._index_module(path, tree)
        return index

    def _index_module(self, path: str, tree: ast.AST) -> None:
        module = ModuleInfo(path, tree)
        self.modules[path] = module
        for node in getattr(tree, "body", []):
            if isinstance(node, _FUNC_NODES):
                info = FunctionInfo(node.name, node.name, node, path, None)
                module.functions[node.name] = info
                self._functions_by_name.setdefault(node.name, []).append(info)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node, path)

    def _index_class(
        self, module: ModuleInfo, node: ast.ClassDef, path: str
    ) -> None:
        cls_info = ClassInfo(node.name, node, path)
        module.classes[node.name] = cls_info
        self._classes_by_name.setdefault(node.name, []).append(cls_info)
        for item in node.body:
            if isinstance(item, _FUNC_NODES):
                qualname = f"{node.name}.{item.name}"
                info = FunctionInfo(item.name, qualname, item, path, node.name)
                cls_info.methods[item.name] = info
                self._functions_by_name.setdefault(item.name, []).append(info)
                cls_info.self_attributes.update(_self_attribute_stores(item))

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every function or method definition with this simple name."""
        return list(self._functions_by_name.get(name, []))

    def module_function(self, path: str, name: str) -> Optional[FunctionInfo]:
        """A module-level function in a specific file, if defined there."""
        module = self.modules.get(path)
        if module is None:
            return None
        return module.functions.get(name)

    def classes_named(self, name: str) -> List[ClassInfo]:
        return list(self._classes_by_name.get(name, []))

    def all_classes(self) -> Iterator[ClassInfo]:
        for module in self.modules.values():
            yield from module.classes.values()

    def all_functions(self) -> Iterator[FunctionInfo]:
        for infos in self._functions_by_name.values():
            yield from infos
