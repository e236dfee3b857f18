"""SK005 — hot-path purity.

Per-item ``insert``/``update`` methods are the only code that runs once
per stream element; the throughput figures stand or fall on them.  Three
constructs are banned there:

* **try/except** — setting up a handler per item costs more than the body,
  and silently-caught exceptions are exactly the corruption mode the
  runtime sanitizer exists to surface;
* **comprehension/generator allocation** — a fresh list/dict/generator per
  item is hidden allocator traffic; hoist it to construction time or use
  an explicit loop over preallocated state;
* **float literals** — counters are exact integers (field residues, signed
  counts); a float literal in the update path is how ``0.5``-style
  "corrections" leak inexactness into counter state.  Module-level float
  *constants* (decay bases and the like) remain fine — only literals
  inside the method body are flagged.

Scope: methods named ``insert`` or ``update`` defined inside a class,
plus ``_update`` — the per-item hook :class:`InvertibleSketch.insert`
delegates to (``insert_all`` batch helpers are deliberately out of scope
— they may amortize allocations across items).  Abstract declarations
are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.sketchlint.engine import FileContext, Rule, Violation

HOT_METHOD_NAMES = frozenset({"insert", "update", "_update"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_abstract(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else ""
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


class HotPathPurityRule(Rule):
    """SK005: insert/update must stay allocation-free, exact, and direct."""

    code = "SK005"
    summary = "per-item insert/update: no try/except, comprehensions, or float literals"

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name in HOT_METHOD_NAMES
                    and not _is_abstract(item)
                ):
                    yield from self._check_method(item, node.name, context)

    # ------------------------------------------------------------------ #
    def _check_method(
        self, node: ast.FunctionDef, class_name: str, context: FileContext
    ) -> Iterator[Violation]:
        where = f"{class_name}.{node.name}"
        for sub in ast.walk(node):
            if isinstance(sub, ast.Try):
                yield self.violation(
                    context,
                    sub,
                    f"try/except in hot path {where}; hoist error handling "
                    "out of the per-item method",
                )
            elif isinstance(sub, _COMPREHENSIONS):
                kind = type(sub).__name__
                yield self.violation(
                    context,
                    sub,
                    f"{kind} allocates per item in hot path {where}; use an "
                    "explicit loop over preallocated state",
                )
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                yield self.violation(
                    context,
                    sub,
                    f"float literal {sub.value!r} in hot path {where}; "
                    "counter state must stay exact-integer (hoist float "
                    "constants to module level if truly needed)",
                )
