"""Every ``REPRO_*`` switch is a ``RunConfig`` field, documented, and read
in exactly one module."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))


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
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_environ(node, ("environ", "getenv"))
    }
    assert readers == {"src/repro/config.py"}


def test_package_never_writes_the_environment():
    """Switches are read; arguments carry values between layers.  No
    ``os.environ[...] = ``, ``del``, ``pop`` / ``setdefault`` /
    ``update`` / ``clear`` on it, and no ``os.putenv`` / ``unsetenv``."""
    writers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
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
