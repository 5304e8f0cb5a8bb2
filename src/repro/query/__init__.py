"""Batched query execution over the page store.

The package replaces the per-record Python loops inside visited pages with
NumPy kernels (:mod:`repro.geometry.kernels`) evaluated over the fused
struct-of-arrays views the pages carry (:mod:`repro.storage.soa`).  The
invariant that makes this safe is spelled out in DESIGN.md: the batched
path issues exactly the charged reads of the scalar reference descents, in
the same order, so the set of pages touched — and every disk-access
statistic the paper reports — is bit-identical.  This package is the
only query path; the scalar reference descents it is checked against live
in ``tests/reference_query.py``.

Modules
-------
``columnar``   per-store workload slot, batch verdict rows, hot-pid hints
``traverse``   ``RowSource``: verdict rows for the descents, plan/replay, scans
``driver``     batched query driver running a whole query file in one pass
"""

from repro.query.columnar import ColumnarCache

__all__ = ["ColumnarCache"]
