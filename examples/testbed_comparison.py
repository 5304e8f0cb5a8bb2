"""Run the paper's standardised testbed at a chosen scale.

This is the closing offer of the paper made executable: build the four
compared point access methods (plus BANG* and BUDDY+) on all seven data
files and the four spatial access methods on all five rectangle files,
and print every table through the renderers that draw the committed
§4/§8 tables, with the paper's row above ours where it has one.

Run:  python examples/testbed_comparison.py [n_records]
(the paper uses 100 000; the default of 5 000 finishes in about a
minute on a laptop)
"""

import sys

from repro.bench.tables import pam_table, sam_table
from repro.core.comparison import run_experiment
from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.workloads.distributions import POINT_FILES, generate_point_file
from repro.workloads.rect_distributions import RECT_FILES, generate_rect_file


def part_one(n: int) -> None:
    print("=" * 72)
    print("Part I: point access methods (query figures in % of GRID)")
    print("=" * 72)
    for file_name in POINT_FILES:
        points = generate_point_file(file_name, n)
        report = run_experiment("pam", standard_pam_factories(), points).to_report()
        print()
        print(pam_table(f"{file_name} ({len(points)} records)", {file_name: report}))


def part_two(n: int) -> None:
    print()
    print("=" * 72)
    print("Part II: spatial access methods (absolute accesses per query)")
    print("=" * 72)
    for file_name in RECT_FILES:
        rects = generate_rect_file(file_name, n)
        report = run_experiment("sam", standard_sam_factories(), rects).to_report()
        print()
        print(sam_table(f"{file_name} ({len(rects)} rectangles)", {file_name: report}))


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    part_one(scale)
    part_two(scale)
