"""Geometric primitives shared by every access method.

The sub-modules are deliberately free of any storage concerns:

* :mod:`repro.geometry.rect` — d-dimensional axis-parallel rectangles.
* :mod:`repro.geometry.blocks` — binary-partition blocks (recursive
  cyclic halving of the unit cube), the common substrate of the BANG
  file and the BUDDY hash tree.
* :mod:`repro.geometry.zorder` — Morton (z-order) codes and z-region
  decomposition used by the z-B+-tree and the clipping technique.
"""

from repro.geometry.rect import Rect

__all__ = ["Rect"]
