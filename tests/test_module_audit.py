"""The module audit table of EXPERIMENTS.md matches the package.

Every ``src/repro/**/*.py`` file and every ``verify.fuzz.STRUCTURES``
entry has a row naming what reads it; a deleted module keeps its row,
marked deleted, and is gone from disk.  A module added without a row, or
a row left behind by a deleted file, fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.verify.fuzz import STRUCTURES

ROOT = Path(__file__).resolve().parent.parent
HEADING = "## AUDIT-MODULES"
ROW = re.compile(r"^\| `([^`]+)` \|(.*)\|$")


def _rows() -> dict[str, str]:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text[text.index(HEADING) :].split("\n## ", 1)[0]
    rows: dict[str, str] = {}
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            name, reader = match.group(1), match.group(2).strip()
            assert name not in rows, f"{name} has two rows"
            rows[name] = reader
    return rows


def test_every_module_and_structure_has_one_reader_row():
    rows = _rows()
    assert all(rows.values()), [name for name, reader in rows.items() if not reader]
    modules = {name: r for name, r in rows.items() if name.startswith("src/repro/")}
    live = {name for name, reader in modules.items() if not reader.startswith("deleted")}
    on_disk = {p.relative_to(ROOT).as_posix() for p in (ROOT / "src/repro").rglob("*.py")}
    assert live == on_disk
    assert not (set(modules) - live) & on_disk
    structures = {name for name in rows if name.startswith("STRUCTURES[")}
    assert structures == {f'STRUCTURES["{key}"]' for key in STRUCTURES}
    assert set(rows) == set(modules) | structures
