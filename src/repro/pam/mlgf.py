"""The multilevel grid file [WK 85] — BUDDY's balanced predecessor.

§2 of the paper derives the BUDDY hash tree from the multilevel grid
file: conditions (i) (pairwise disjoint regions) and (ii) (regions need
not span the space) "have already been incorporated in the multilevel
grid file"; what BUDDY adds are the four performance properties, first
among them that no directory page holds fewer than two entries.  The
multilevel grid file (like the balanced multidimensional extendible
hash tree) is *artificially balanced by allowing one entry in a
directory page*, so every search walks the full directory height.

The structure therefore shares BUDDY's entire machinery and differs in
one switch: :class:`MultilevelGridFile` is the ``balanced=True`` buddy
tree under its historical name.  The ``ABL-MLGF`` bench measures what
the paper claims — that BUDDY's path shortening "is a performance
improvement for all operations compared to the balanced competitors".
"""

from __future__ import annotations

from repro.pam.buddytree import BuddyTree
from repro.storage.pagestore import PageStore

__all__ = ["MultilevelGridFile"]


class MultilevelGridFile(BuddyTree):
    """The multilevel grid file: a balanced buddy-style directory."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, balanced=True)

    def pack(self) -> int:
        """Packing is a BUDDY+ feature; the multilevel grid file has none."""
        raise NotImplementedError(
            "packing (property 4) belongs to the BUDDY hash tree"
        )
