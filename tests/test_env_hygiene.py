"""Every ``REPRO_*`` switch the package reads is documented, and vice versa."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_env_switches_match_readme_table():
    in_source = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        in_source.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
    assert in_source == in_table


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def test_package_never_writes_the_environment():
    """Switches are read; arguments carry values between layers.  No
    ``os.environ[...] = ``, ``del``, ``pop`` / ``setdefault`` /
    ``update`` / ``clear`` on it, and no ``os.putenv`` / ``unsetenv``."""
    writers = []
    for path in (ROOT / "src" / "repro").rglob("*.py"):
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
