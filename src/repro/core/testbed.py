"""The standardised testbed the paper proposes.

"This comparison is a first step towards a standardized testbed or
benchmark.  We offer our data and query files to each designer of a new
point or spatial access method such that he can run his implementation
in our testbed."

:func:`standard_pam_factories` / :func:`standard_sam_factories` return
the compared structures under the paper's table abbreviations; the
benches size their data files by ``RunConfig.bench_scale``, laptop
scale by default and the paper's 100 000 records on demand.

:func:`repro.core.comparison.run_experiment` with
:func:`standard_factories` runs the whole standard comparison on any
data, and ``to_report()`` on its outcome is the machine-readable
:class:`~repro.obs.export.RunReport` (per-operation access histograms,
percentiles, timings and exact totals).

Queries run through the batched execution layer (:mod:`repro.query`),
whose results and access counts equal those of the scalar reference
descents kept in ``tests/reference_query.py``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.hbtree import HBTree
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM

__all__ = [
    "standard_pam_factories",
    "standard_sam_factories",
    "standard_factories",
]


def standard_pam_factories() -> dict[str, Callable[..., PointAccessMethod]]:
    """The four compared PAMs plus the BANG* entry-size variant.

    BUDDY+ is not a separate build: the benches derive it by calling
    :meth:`repro.pam.buddytree.BuddyTree.pack` on the BUDDY file, just
    as the authors generated it "by computation and simulation".
    """
    return {
        "HB": lambda store, dims=2: HBTree(store, dims),
        "BANG": lambda store, dims=2: BangFile(store, dims),
        "BANG*": lambda store, dims=2: BangFile(
            store, dims, variable_length_entries=True
        ),
        "GRID": lambda store, dims=2: TwoLevelGridFile(store, dims),
        "BUDDY": lambda store, dims=2: BuddyTree(store, dims),
    }


def standard_factories(kind: str) -> dict[str, Callable]:
    """The standard structures of one part of the comparison, by kind."""
    return standard_pam_factories() if kind == "pam" else standard_sam_factories()


def standard_sam_factories() -> dict[str, Callable[..., SpatialAccessMethod]]:
    """The four compared SAMs (transformation uses corner representation)."""
    return {
        "R-Tree": lambda store, dims=2: RTree(store, dims),
        "BANG": lambda store, dims=2: TransformationSAM(
            store,
            lambda s, dims: BangFile(s, dims, variable_length_entries=True),
            dims=dims,
        ),
        "BUDDY": lambda store, dims=2: TransformationSAM(
            store, lambda s, dims: BuddyTree(s, dims), dims=dims
        ),
        "PLOP": lambda store, dims=2: OverlappingPlop(store, dims),
    }
