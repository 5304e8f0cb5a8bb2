"""Reproduction of Kriegel, Schiwietz, Schneider & Seeger (SSD '89).

``repro`` re-implements, in pure Python over a simulated 512-byte page
store, every access method compared in *"Performance Comparison of Point
and Spatial Access Methods"* (Symposium on the Design and Implementation
of Large Spatial Databases, Santa Barbara, 1989):

* Part I — point access methods: the 2-level grid file, the BANG file
  (fixed and variable-length directory entries), the hB-tree and the
  BUDDY hash tree (plain and packed).
* Part II — spatial access methods for rectangles: the R-tree and
  PAM-based schemes built with the transformation, clipping and
  overlapping-regions techniques.

The package also ships the paper's workload generators (seven point
distributions, five rectangle distributions, all query files) and an
experiment driver that regenerates every table and figure of the paper's
evaluation section.  See ``DESIGN.md`` for the system inventory and
``EXPERIMENTS.md`` for paper-versus-measured results.
"""

from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.core.stats import AccessStats, BuildMetrics
from repro.geometry.rect import Rect
from repro.obs import RunReport, Tracer
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
from repro.sam.clipping import ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.storage.pagestore import PageStore

__all__ = [
    "AccessStats",
    "BangFile",
    "BuddyTree",
    "BuildMetrics",
    "ClippingSAM",
    "GridFile",
    "HBTree",
    "KdBTree",
    "MultilevelGridFile",
    "OverlappingPlop",
    "PageStore",
    "PlopHashing",
    "PointAccessMethod",
    "QuantileHashing",
    "RPlusTree",
    "RTree",
    "Rect",
    "RunReport",
    "SpatialAccessMethod",
    "Tracer",
    "TransformationSAM",
    "TwinGridFile",
    "TwoLevelGridFile",
    "ZOrderBTree",
]

__version__ = "1.0.0"
