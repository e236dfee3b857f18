"""The sketchlint engine: rule protocol, pragma handling, file walking.

A *rule* is an object with a ``code`` (``SK001`` ...), a one-line
``summary``, and a ``check(tree, context)`` method yielding
:class:`Violation` instances.  Rules with ``package_level = True``
(subclasses of :class:`PackageRule`) additionally see the whole batch of
files at once through :meth:`PackageRule.check_package` — the
:class:`PackageContext` carries a :class:`~tools.sketchlint.symbols.SymbolIndex`
so interprocedural rules (SK102, SK104, SK105) can resolve calls across
files.
The engine owns everything rules should not have to care about: file
discovery, source parsing, per-line suppression pragmas, result caching
and report aggregation.

Suppression: a trailing comment ``# sketchlint: disable=SK003`` silences
the named codes (comma separated; ``all`` silences every rule) for
violations reported on that physical line — and, when the pragma sits on
the *first* line of a multi-line **simple** statement (an assignment or
call spanning several lines), for the whole statement span via the AST's
``end_lineno``.  Compound statements (``if``/``for``/``def`` ...) are
deliberately excluded from span suppression: a pragma on a ``for`` header
must not silently blanket the entire loop body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from tools.sketchlint.symbols import SymbolIndex

if TYPE_CHECKING:  # cycle guard: cache stores Violations
    from tools.sketchlint.cache import ResultCache

_PRAGMA = re.compile(r"#\s*sketchlint:\s*disable=([A-Za-z0-9_,\s]+)")

#: statement types whose first-line pragma covers the whole span.  These
#: are the *simple* statements — the ones black/formatters legitimately
#: wrap across lines with the trailing comment stuck on line one.
_SPAN_STATEMENTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a concrete source location."""

    code: str
    message: str
    path: str
    line: int
    column: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column + 1}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may want to know about the file under analysis."""

    path: str
    source: str
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def name(self) -> str:
        """Base filename, e.g. ``infrequent_part.py``."""
        return Path(self.path).name

    def line_at(self, lineno: int) -> str:
        """The 1-indexed physical line ('' when out of range)."""
        index = lineno - 1
        if 0 <= index < len(self.lines):
            return self.lines[index]
        return ""


@dataclass
class PackageContext:
    """The whole linted batch, for interprocedural (package-level) rules."""

    index: SymbolIndex
    files: Dict[str, FileContext]
    trees: Dict[str, ast.AST]


class Rule:
    """Base class for sketchlint rules (subclasses override ``check``)."""

    code: str = "SK000"
    summary: str = ""
    #: one-paragraph description used by the SARIF rule metadata
    description: str = ""
    #: True for rules that analyze the whole batch (see PackageRule)
    package_level: bool = False

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Violation]:
        raise NotImplementedError  # sketchlint: disable=SK003

    # Helper for subclasses ------------------------------------------------
    def violation(
        self, context: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            code=self.code,
            message=message,
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )

    def violation_at(
        self, path: str, node: ast.AST, message: str
    ) -> Violation:
        """Like :meth:`violation` for package rules (path, not context)."""
        return Violation(
            code=self.code,
            message=message,
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


class PackageRule(Rule):
    """A rule that needs the whole-package view (symbol index, all files).

    ``check`` is satisfied trivially — package rules report everything
    through :meth:`check_package`, which the engine calls exactly once
    per lint invocation with every file of the batch.
    """

    package_level = True

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_package(self, package: PackageContext) -> Iterator[Violation]:
        raise NotImplementedError  # sketchlint: disable=SK003


@dataclass
class LintReport:
    """Aggregated violations across one lint invocation."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: findings hidden by the baseline file (grandfathered debt)
    baseline_suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def render(self) -> str:
        out = [v.render() for v in self.violations]
        out.extend(self.parse_errors)
        summary = (
            f"sketchlint: {self.files_checked} file(s) checked, "
            f"{len(self.violations)} violation(s)"
        )
        if self.baseline_suppressed:
            summary += f" ({self.baseline_suppressed} baselined)"
        out.append(summary)
        return "\n".join(out)


def _suppressed_codes(line: str) -> Set[str]:
    """Codes suppressed by a ``# sketchlint: disable=...`` pragma, if any."""
    match = _PRAGMA.search(line)
    if not match:
        return set()
    return {token.strip().upper() for token in match.group(1).split(",") if token.strip()}


def _pragma_map(tree: ast.AST, lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line suppressed codes: direct pragmas plus statement spans.

    A pragma on any physical line always covers that line.  When the line
    is the *first* line of a multi-line simple statement, the pragma
    covers every line through the statement's ``end_lineno`` — so one
    trailing comment suppresses a wrapped call or assignment whose
    violation is reported on a continuation line.
    """
    per_line: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        codes = _suppressed_codes(text)
        if codes:
            per_line.setdefault(number, set()).update(codes)
    if per_line:
        for node in ast.walk(tree):
            if not isinstance(node, _SPAN_STATEMENTS):
                continue
            start = node.lineno
            end = getattr(node, "end_lineno", start) or start
            if end <= start:
                continue
            codes = per_line.get(start)
            if not codes:
                continue
            for covered in range(start + 1, end + 1):
                per_line.setdefault(covered, set()).update(codes)
    return per_line


def _apply_pragmas(
    violations: Iterable[Violation], pragmas: Dict[int, Set[str]]
) -> List[Violation]:
    kept = []
    for violation in violations:
        suppressed = pragmas.get(violation.line, set())
        if "ALL" in suppressed or violation.code.upper() in suppressed:
            continue
        kept.append(violation)
    return kept


def _split_rules(active: Sequence[Rule]) -> Tuple[List[Rule], List[Rule]]:
    file_rules = [rule for rule in active if not rule.package_level]
    package_rules = [rule for rule in active if rule.package_level]
    return file_rules, package_rules


def _resolve_rules(
    rules: Optional[Sequence[Rule]], select: Optional[Sequence[str]] = None
) -> List[Rule]:
    from tools.sketchlint.rules import ALL_RULES, rules_by_code

    if select is not None:
        registry = rules_by_code()
        unknown = [code for code in select if code.upper() not in registry]
        if unknown:
            # Tool-facing API error, not library code. sketchlint: disable=SK003
            raise ValueError(  # sketchlint: disable=SK003
                f"unknown rule code(s): {', '.join(unknown)}"
            )
        return [registry[code.upper()]() for code in select]
    if rules is not None:
        return list(rules)
    return [cls() for cls in ALL_RULES]


def _sort_key(violation: Violation) -> Tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.column, violation.code)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint a source string; returns the (pragma-filtered) violations.

    Package-level rules are supported by treating the single source as a
    one-file package — exactly how the fixture tests exercise SK102,
    SK104 and SK105.
    """
    active = _resolve_rules(rules)
    tree = ast.parse(source, filename=path)
    context = FileContext(path=path, source=source)
    file_rules, package_rules = _split_rules(active)
    collected: List[Violation] = []
    for rule in file_rules:
        collected.extend(rule.check(tree, context))
    if package_rules:
        package = PackageContext(
            index=SymbolIndex.build({path: tree}),
            files={path: context},
            trees={path: tree},
        )
        for rule in package_rules:
            collected.extend(
                v for v in rule.check_package(package) if v.path == path
            )
    collected = _apply_pragmas(collected, _pragma_map(tree, context.lines))
    collected.sort(key=_sort_key)
    return collected


def lint_file(path: Path, rules: Optional[Sequence[Rule]] = None) -> List[Violation]:
    """Lint one file on disk."""
    return lint_source(path.read_text(encoding="utf-8"), str(path), rules)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the ordered set of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Sequence[str]] = None,
    cache: Optional["ResultCache"] = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the run to the given rule codes (case-insensitive);
    unknown codes raise ``ValueError`` so typos in CI configs fail loudly.
    ``cache`` (see :mod:`tools.sketchlint.cache`) short-circuits per-file
    rule runs and the package-rule pass when nothing relevant changed.
    """
    active = _resolve_rules(rules, select)
    file_rules, package_rules = _split_rules(active)
    file_paths = list(iter_python_files(paths))

    report = LintReport(files_checked=len(file_paths))

    file_codes = sorted(rule.code for rule in file_rules)
    package_codes = sorted(rule.code for rule in package_rules)
    cache_keys: Dict[Path, str] = {}
    if cache is not None:
        for file_path in file_paths:
            cache_keys[file_path] = cache.file_key(file_path, file_codes)
        package_key = cache.package_key(file_paths, package_codes)
        if package_codes:
            fully_cached = cache.get_package(package_key) is not None
        else:
            fully_cached = True
        fully_cached = fully_cached and all(
            cache.get_file(key) is not None for key in cache_keys.values()
        )
        if fully_cached:
            for key in cache_keys.values():
                report.violations.extend(cache.get_file(key) or [])
            if package_codes:
                report.violations.extend(cache.get_package(package_key) or [])
            report.violations.sort(key=_sort_key)
            return report

    parsed: Dict[str, Tuple[ast.AST, FileContext]] = {}
    for file_path in file_paths:
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            report.parse_errors.append(f"{file_path}: syntax error: {exc}")
            continue
        parsed[str(file_path)] = (tree, FileContext(path=str(file_path), source=source))

    pragma_maps: Dict[str, Dict[int, Set[str]]] = {
        path: _pragma_map(tree, context.lines)
        for path, (tree, context) in parsed.items()
    }

    for file_path in file_paths:
        key = str(file_path)
        if key not in parsed:
            continue
        tree, context = parsed[key]
        cached: Optional[List[Violation]] = None
        if cache is not None:
            cached = cache.get_file(cache_keys[file_path])
        if cached is not None:
            report.violations.extend(cached)
            continue
        collected: List[Violation] = []
        for rule in file_rules:
            collected.extend(rule.check(tree, context))
        collected = _apply_pragmas(collected, pragma_maps[key])
        if cache is not None:
            cache.put_file(cache_keys[file_path], collected)
        report.violations.extend(collected)

    if package_rules:
        package = PackageContext(
            index=SymbolIndex.build(
                {path: tree for path, (tree, _context) in parsed.items()}
            ),
            files={path: context for path, (_tree, context) in parsed.items()},
            trees={path: tree for path, (tree, _context) in parsed.items()},
        )
        package_violations: List[Violation] = []
        for rule in package_rules:
            package_violations.extend(rule.check_package(package))
        kept: List[Violation] = []
        for violation in package_violations:
            pragmas = pragma_maps.get(violation.path)
            if pragmas is not None:
                filtered = _apply_pragmas([violation], pragmas)
                kept.extend(filtered)
            else:
                kept.append(violation)
        if cache is not None:
            cache.put_package(
                cache.package_key(file_paths, package_codes), kept
            )
        report.violations.extend(kept)

    if cache is not None:
        cache.save()
    report.violations.sort(key=_sort_key)
    return report
