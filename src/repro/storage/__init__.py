"""Simulated secondary storage.

The paper's metric is the number of *disk page accesses*; wall-clock time
never appears in its tables.  This package therefore provides a counted,
deterministic page store instead of real I/O:

* :mod:`repro.storage.page` — page identities and kinds.
* :mod:`repro.storage.pagestore` — the counted store, including the
  paper's buffering rules (pinned root / in-core first-level directory,
  plus a buffer holding the most recently accessed search path).
* :mod:`repro.storage.layout` — 512-byte page capacity arithmetic.

A second, *durable* backend implements the same interface over real
files (ROADMAP item 1) — page accesses then measure actual I/O while
the charged counters stay bit-identical to the simulated store:

* :mod:`repro.storage.io` — the file-IO seam, with deterministic fault
  injection (fail-stop, torn writes, bit flips) for crash testing.
* :mod:`repro.storage.wal` — the log format (length+CRC framed
  records, fsynced commit boundaries, redo-only replay).
* :mod:`repro.storage.disk` — :class:`~repro.storage.disk.DiskPageStore`:
  pages kept in the log records that committed them (a compacted base
  and a write-ahead log) behind a bounded buffer pool kept least
  recently touched first.
* :mod:`repro.storage.factory` — environment-switched store
  construction (``REPRO_STORE_BACKEND=sim|disk``).
"""

from repro.storage.factory import make_store
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore

__all__ = ["PageKind", "PageStore", "make_store"]
