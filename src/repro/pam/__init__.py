"""Point access methods (Part I of the paper).

Implemented structures, with the abbreviations used in the paper's
tables:

* ``GRID`` — :class:`repro.pam.twolevelgrid.TwoLevelGridFile` (the
  measuring stick; its first-level directory is kept in main memory).
* ``BANG`` / ``BANG*`` — :class:`repro.pam.bang.BangFile` (nested block
  regions; ``variable_length_entries=True`` gives BANG*).
* ``HB`` — :class:`repro.pam.hbtree.HBTree` (kd-tree node organisation,
  holey-brick regions).
* ``BUDDY`` / ``BUDDY+`` — :class:`repro.pam.buddytree.BuddyTree`
  (``pack()`` produces the packed variant).

Additional structures used as substrates or baselines:

* :class:`repro.pam.gridfile.GridFile` — classic one-level grid file.
* :class:`repro.pam.plop.PlopHashing` — directory-less linear hashing,
  the substrate of the overlapping-regions SAM.
* :class:`repro.pam.zbtree.ZOrderBTree` — B+-tree over z-values (class
  C4 baseline, substrate of the clipping SAM).
* :class:`repro.pam.kdbtree.KdBTree` — the classic class-C1 k-d-B tree.
* :class:`repro.pam.mlgf.MultilevelGridFile` — BUDDY's balanced
  predecessor (class C3), used by the ABL-MLGF bench.
* :class:`repro.pam.twingrid.TwinGridFile` — the class-C2 twin grid
  file, completing the taxonomy of Table 1.
* :class:`repro.pam.plop.QuantileHashing` — the adaptive directory-less
  hashing scheme of [KS 87].
"""

from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.kdbtree import KdBTree
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import PlopHashing, QuantileHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.pam.zbtree import ZOrderBTree

__all__ = [
    "BangFile",
    "BuddyTree",
    "GridFile",
    "HBTree",
    "KdBTree",
    "MultilevelGridFile",
    "PlopHashing",
    "QuantileHashing",
    "TwinGridFile",
    "TwoLevelGridFile",
    "ZOrderBTree",
]
