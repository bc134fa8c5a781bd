"""Repository hygiene that no other test would notice breaking.

Nothing in tier-1 *runs* ``examples/*.py`` or ``benchmarks/bench_*.py``,
so a name deleted from ``repro`` would break them silently; and the
rule for removing an API here is *replace, don't deprecate*, so no
deprecation machinery may linger under ``src/``.  Both checks read
source text only — nothing is executed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks").glob("bench_*.py")]
)


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """Every ``(module, name-or-None)`` a script imports from ``repro``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found += [(node.module, alias.name) for alias in node.names]
    return [
        (module, name)
        for module, name in found
        if module == "repro" or module.startswith("repro.")
    ]


def test_scripts_were_found():
    assert any(path.parent.name == "examples" for path in SCRIPTS)
    assert any(path.parent.name == "benchmarks" for path in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports_resolve(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or name == "*" or hasattr(module, name):
            continue
        # ``from package import submodule`` without the package having
        # imported it yet.
        importlib.import_module(f"{module_name}.{name}")


def test_src_has_no_deprecation_machinery():
    offenders = [
        f"{path.relative_to(ROOT)}: {needle}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for needle in ("DeprecationWarning", "warnings.warn")
        if needle in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders


STRATEGY_MODULES = sorted(
    path
    for path in (ROOT / "src" / "repro" / "core" / "strategies").glob("*.py")
    if path.name != "textcues.py"
)


@pytest.mark.parametrize("path", STRATEGY_MODULES, ids=lambda path: path.name)
def test_only_textcues_reads_link_text(path):
    """One place asks what a link's text says: ``textcues.py``.  A
    strategy that imports the character detector or touches
    ``.anchor_text`` / ``.around_text`` itself has gone back to per-link
    text, which on a record-mode page means writing it first."""
    assert len(STRATEGY_MODULES) > 10
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            offenders += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name.split(".")[-1] == "language_char_fraction"
            ]
        elif isinstance(node, ast.Attribute) and node.attr in (
            "anchor_text",
            "around_text",
            "language_char_fraction",
        ):
            offenders.append(f"line {node.lineno}: reads .{node.attr}")
    assert not offenders, offenders


def _calls_by_function(tree: ast.AST, name: str, scope: str = "<module>") -> list[str]:
    """The enclosing function of every call to ``name`` (bare or attribute)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _calls_by_function(node, name, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.append(scope)
        found += _calls_by_function(node, name, scope)
    return found


def test_one_scan_computes_the_coverage_denominator():
    """The denominator is a memoised property of the page source (paper
    §3.4: "determined beforehand"): only ``CrawlLog.relevant_url_view``
    scans records for it.  A second caller of ``relevant_url_set`` would
    be a per-session rescan of the whole web."""
    callers = [
        f"{path.relative_to(ROOT / 'src')}:{function}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for function in _calls_by_function(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "relevant_url_set"
        )
    ]
    assert callers == ["repro/webspace/crawllog.py:relevant_url_view"]


def _declares_per_link_expand(node: ast.ClassDef) -> bool:
    """True for a class body setting ``sees_scheduled_links = False``."""
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        if any(getattr(target, "id", None) == "sees_scheduled_links" for target in targets):
            value = statement.value
            return isinstance(value, ast.Constant) and value.value is False
    return False


def _writes_to_self(target: ast.AST) -> bool:
    """``self.x = ...`` or ``self.x[k] = ...``."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"


def test_declared_per_link_expands_keep_no_state():
    """A strategy declaring ``sees_scheduled_links = False`` is handed
    only unscheduled outlinks, which is sound only while its ``expand``
    is a pure per-link map.  An ``expand`` that writes a ``self.``
    attribute or re-ranks the queue has outgrown the declaration."""
    declared, offenders = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _declares_per_link_expand(cls):
                continue
            declared.append(cls.name)
            for function in cls.body:
                if not isinstance(function, ast.FunctionDef) or function.name != "expand":
                    continue
                for node in ast.walk(function):
                    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        offenders += [
                            f"{cls.name}.expand line {node.lineno}: writes self state"
                            for target in targets
                            if _writes_to_self(target)
                        ]
                    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                        "update_priority",
                        "priority_of",
                    ):
                        offenders.append(f"{cls.name}.expand line {node.lineno}: re-ranks")
    assert sorted(declared) == [
        "BreadthFirstStrategy",
        "ContextGraphStrategy",
        "LimitedDistanceStrategy",
        "SimpleStrategy",
    ]
    assert not offenders, offenders
