"""Every ``REPRO_*`` switch is a ``RunConfig`` field, documented, and read
in exactly one module — and the query path has no switch at all: no
``*_scalar`` twin, no ``columnar is None`` fork, no ``vector`` parameter on
the store or the grid layer (the reference is ``tests/reference_query.py``).
Outside ``storage/`` a page is reached through the store's methods only."""

import ast
import functools
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.core.comparison import build_method
from repro.geometry.rect import Rect
from repro.pam.gridfile import GridFile
from repro.storage.disk import DiskPageStore
from repro.storage.factory import make_store

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    """One module's syntax tree, parsed once for every check here."""
    return ast.parse(path.read_text())


def test_env_switches_match_readme_table():
    switches = {f"REPRO_{f.name.upper()}" for f in fields(RunConfig)}
    readme = (ROOT / "README.md").read_text()
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
    assert in_table == switches
    # No other name is even mentioned in the package.
    for path in SOURCES:
        assert set(re.findall(r"REPRO_[A-Z_]+", path.read_text())) <= switches, path


def _is_environ(node, names=("environ",)) -> bool:
    """``os.environ`` or a bare imported ``environ`` (or another of ``names``)."""
    return (isinstance(node, ast.Attribute) and node.attr in names) or (
        isinstance(node, ast.Name) and node.id in names
    )


def test_only_config_reads_the_environment():
    readers = {
        str(path.relative_to(ROOT))
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if _is_environ(node, ("environ", "getenv"))
    }
    assert readers == {"src/repro/config.py"}


def test_package_never_writes_the_environment():
    """Switches are read; arguments carry values between layers.  No
    ``os.environ[...] = ``, ``del``, ``pop`` / ``setdefault`` /
    ``update`` / ``clear`` on it, and no ``os.putenv`` / ``unsetenv``."""
    writers = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Subscript) and _is_environ(node.value):
                written = isinstance(node.ctx, (ast.Store, ast.Del))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                written = node.func.attr in ("putenv", "unsetenv") or (
                    _is_environ(node.func.value)
                    and node.func.attr in ("pop", "setdefault", "update", "clear")
                )
            else:
                continue
            if written:
                writers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert writers == []


def _params(func) -> set[str]:
    args = func.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _second_paths(tree):
    """``(line, what)`` for every scalar twin or switch in one module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_scalar"):
                yield node.lineno, f"defines {node.name}"
            if node.name == "payloads_in_rect" and "vector" in _params(node):
                yield node.lineno, "payloads_in_rect takes vector"
        elif isinstance(node, ast.ClassDef) and node.name == "PageStore":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    if "vector" in _params(item):
                        yield item.lineno, "PageStore.__init__ takes vector"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {getattr(o, "attr", getattr(o, "id", None)) for o in operands}
            if "columnar" in names and any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                yield node.lineno, "compares columnar with None"


def test_no_scalar_twin_or_store_switch_in_the_package():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in SOURCES
        for line, what in _second_paths(_tree(path))
    ]
    assert found == []


def test_only_the_store_indexes_its_page_objects():
    """``read``, ``held`` and ``peek`` are the ways to reach a page; a
    lookup in ``store._objects`` would be an access the store never sees."""
    storage = ROOT / "src" / "repro" / "storage"
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in SOURCES
        if storage not in path.parents
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "_objects"
    ]
    assert found == []


def test_vector_keyword_survives_as_true_only(tmp_path):
    """The e2e harness still passes ``vector=True``; nothing else is taken."""
    grid = build_method(GridFile, [(0.5, 0.5)], vector=True)
    assert grid.range_query(Rect.unit(2)) == [((0.5, 0.5), 0)]
    DiskPageStore(tmp_path / "ok", vector=True).close()
    for build in (
        lambda: build_method(GridFile, [], vector=False),
        lambda: make_store(512, vector=False),
        lambda: DiskPageStore(tmp_path / "no", vector=False),
    ):
        with pytest.raises(ValueError, match="one query path"):
            build()


def test_only_make_store_and_the_bench_program_call_from_env():
    """The environment lives at the edge: the store factory reads the
    backend switches, ``python -m repro.bench`` the run's, and every
    driver takes plain values."""
    callers = []
    for path in SOURCES:
        tree = _tree(path)
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_env":
                scopes = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                callers.append(f"{path.relative_to(ROOT)}:{(scopes or ['<module>'])[-1]}")
    assert sorted(callers) == [
        "src/repro/bench/__main__.py:run_bench",
        "src/repro/storage/factory.py:make_store",
    ]
