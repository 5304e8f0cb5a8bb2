"""Workload generators: the paper's data and query files.

* :mod:`repro.workloads.distributions` — the seven 2-d point files
  (F1)–(F7) of the PAM comparison.
* :mod:`repro.workloads.rect_distributions` — the five rectangle files
  (F1)–(F5) of the SAM comparison.
* :mod:`repro.workloads.terrain` — the synthetic substitute for the
  paper's real cartography file (see DESIGN.md, substitutions).
* :mod:`repro.workloads.queries` — the query files: (RQ1)–(RQ3),
  (PMQ1)/(PMQ2) and the 160+20 rectangle-query workload of §7.
"""

from repro.workloads.distributions import POINT_FILES, generate_point_file
from repro.workloads.queries import (
    generate_partial_match_queries,
    generate_point_queries,
    generate_range_queries,
    generate_rect_query_workload,
)
from repro.workloads.rect_distributions import RECT_FILES, generate_rect_file

__all__ = [
    "POINT_FILES",
    "RECT_FILES",
    "generate_partial_match_queries",
    "generate_point_file",
    "generate_point_queries",
    "generate_range_queries",
    "generate_rect_file",
    "generate_rect_query_workload",
]
