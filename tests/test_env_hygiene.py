"""Every ``REPRO_*`` switch the package reads is documented, and vice versa."""

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
