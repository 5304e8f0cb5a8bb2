"""The counted page store.

A :class:`PageStore` hands out page identifiers, keeps each page's
in-memory node object, and counts every read and write, classified by
:class:`~repro.storage.page.PageKind`.  Two buffering rules from §3 of
the paper are built in:

* **Pinned pages** — the root of a tree directory (or, for the 2-level
  grid file, the whole first-level directory) resides in main memory;
  reads and writes of pinned pages are free.  The number of pinned
  pages is reported so that the paper's remark about GRID's in-core
  directory ("up to 45 directory pages for 100 000 records") can be
  reproduced.
* **Search-path buffer** — the most recently accessed search path stays
  buffered; re-reading one of its pages costs nothing.  The buffer is
  re-populated by each operation, so it "dynamically grows and shrinks
  according to the height of the tree".

Access methods bracket every externally visible operation (insert,
delete, query) with :meth:`PageStore.begin_operation`; everything read
or written in between forms the new buffered path.

**Observer hook** — the store accepts an optional :attr:`PageStore.observer`
(see :class:`repro.obs.tracer.StoreObserver`): ``on_operation_begin(store)``
fires at every operation bracket *before* the path buffer rotates, and
``on_access(store, pid, kind, rw, charged, reason)`` fires on every page
touch, whether it was charged or free (``reason`` is one of ``charged``,
``pinned``, ``buffered``, ``path``, ``dedup``).  Observation is purely
passive — it can never change which accesses are charged — and the
default of ``None`` costs only one ``is not None`` test per touch, so
uninstrumented runs are unaffected.
"""

from __future__ import annotations

from typing import Any

from repro.core.stats import AccessStats
from repro.query.columnar import ColumnarCache
from repro.storage.page import PageKind

__all__ = ["PageStore"]


class PageStore:
    """Allocate, read, write and free simulated disk pages.

    Parameters
    ----------
    page_size:
        Page size in bytes; recorded for reporting.  Capacity decisions
        are taken by the access methods via :mod:`repro.storage.layout`.
    """

    def __init__(self, page_size: int = 512, path_buffer_limit: int = 6):
        self.page_size = page_size
        #: How many of the most recently accessed pages stay buffered
        #: across operations — the paper's "last accessed search path"
        #: (§3).  Six covers a root-to-leaf path of every structure here;
        #: the 2-level grid file sets it to 2 ("the last two accessed
        #: pages").
        self.path_buffer_limit = path_buffer_limit
        self.stats = AccessStats()
        #: Optional passive observer (``repro.obs.tracer.StoreObserver``);
        #: ``None`` keeps the store on its uninstrumented fast path.
        self.observer: Any = None
        self._objects: dict[int, Any] = {}
        self._kinds: dict[int, PageKind] = {}
        self._pinned: set[int] = set()
        self._buffer_prev: set[int] = set()
        self._buffer_cur: dict[int, None] = {}
        self._written_this_op: set[int] = set()
        self._next_id = 0
        #: Workload slot of the batched query path (:mod:`repro.query`).
        self.columnar = ColumnarCache()

    # -- page lifecycle -------------------------------------------------

    def allocate(self, kind: PageKind, obj: Any) -> int:
        """Create a new page holding ``obj`` and return its identifier.

        Allocation itself is free; the page is charged when it is first
        written.
        """
        pid = self._next_id
        self._next_id += 1
        self._objects[pid] = obj
        self._kinds[pid] = kind
        return pid

    def free(self, pid: int) -> None:
        """Release a page (after a merge); freeing is not a disk access."""
        self.columnar.invalidate(pid)
        del self._objects[pid]
        del self._kinds[pid]
        self._pinned.discard(pid)
        self._buffer_prev.discard(pid)
        self._buffer_cur.pop(pid, None)
        self._written_this_op.discard(pid)

    def kind(self, pid: int) -> PageKind:
        """The :class:`PageKind` of page ``pid``."""
        return self._kinds[pid]

    def close(self) -> None:
        """Release the store's resources: none in memory (the durable
        backend checkpoints and closes its files)."""

    # -- audit accessors ---------------------------------------------------
    #
    # Auditors and read-only walks must see the file without disturbing
    # the access counts or the path buffer, so they get uncharged,
    # unobserved read-only views of the store's state.

    def peek(self, pid: int) -> Any:
        """A page's object, uncharged and read-only: on disk a page that is
        not resident comes back as a private copy."""
        return self._objects[pid]

    def is_pinned(self, pid: int) -> bool:
        """Whether ``pid`` is pinned (uncharged; audits only)."""
        return pid in self._pinned

    def pinned_ids(self) -> set[int]:
        """The set of pinned page ids (a copy; audits only)."""
        return set(self._pinned)

    def page_ids(self) -> list[int]:
        """All live page identifiers (for audits and metrics)."""
        return list(self._objects)

    def count_pages(self, kind: PageKind) -> int:
        """Number of live pages of the given kind."""
        return sum(1 for k in self._kinds.values() if k is kind)

    # -- pinning ---------------------------------------------------------

    def pin(self, pid: int) -> None:
        """Keep ``pid`` permanently in main memory; its accesses become free."""
        self._pinned.add(pid)

    def unpin(self, pid: int) -> None:
        """Undo :meth:`pin`."""
        self._pinned.discard(pid)

    @property
    def pinned_count(self) -> int:
        """How many pages are pinned (reported as main-memory footprint)."""
        return len(self._pinned)

    # -- operations and the path buffer -----------------------------------

    def begin_operation(self) -> None:
        """Start a new insert/delete/query.

        The *tail* of the previous operation's accesses — at most
        :attr:`path_buffer_limit` pages, i.e. its final search path —
        stays buffered and can be re-read for free.

        The tail is deterministic: pages enter the buffer in the order
        of their *first* touch (read or write) within an operation, and
        later touches of the same page — re-reads, reads after writes,
        deduplicated repeat writes — never reorder it.  "Last
        ``path_buffer_limit`` accessed pages" therefore means the last
        ``path_buffer_limit`` *distinct* pages by first touch, which for
        a tree descent is exactly the final root-to-leaf search path.
        """
        if self.observer is not None:
            self.observer.on_operation_begin(self)
        touched = self._buffer_cur
        limit = self.path_buffer_limit
        # Most operations touch no more pages than the buffer holds; only
        # a longer one needs its order listed to cut the tail.
        if len(touched) <= limit:
            self._buffer_prev = set(touched)
        else:
            self._buffer_prev = set(list(touched)[-limit:])
        self._buffer_cur = {}
        self._written_this_op = set()

    def read(self, pid: int) -> Any:
        """Fetch a page's object, charging a read unless it is buffered."""
        obj = self._objects[pid]
        observer = self.observer
        if pid in self._pinned:
            if observer is not None:
                observer.on_access(
                    self, pid, self._kinds[pid], "read", False, "pinned"
                )
            return obj
        buffer_cur = self._buffer_cur
        if pid in buffer_cur:
            if observer is not None:
                observer.on_access(
                    self, pid, self._kinds[pid], "read", False, "buffered"
                )
            return obj
        buffer_cur[pid] = None
        if pid in self._buffer_prev:
            if observer is not None:
                observer.on_access(
                    self, pid, self._kinds[pid], "read", False, "path"
                )
            return obj
        stats = self.stats
        if self._kinds[pid] is PageKind.DATA:
            stats.data_reads += 1
        else:
            stats.dir_reads += 1
        if observer is not None:
            observer.on_access(
                self, pid, self._kinds[pid], "read", True, "charged"
            )
        return obj

    def held(self, pid: int) -> Any:
        """The live page, uncharged: one the current operation reads, writes
        or allocates before or after this call, or a pinned one (checked by
        :class:`repro.verify.barrier.WriteBarrier`)."""
        return self._objects[pid]

    def write(self, pid: int) -> None:
        """Charge a write for page ``pid`` and keep it on the buffered path.

        Repeated writes of the same page within one operation are charged
        once — a real system flushes each dirty page a single time.
        """
        # Invalidate before any charging decision: pinned and deduplicated
        # writes still mean the page object changed, so its cached verdict
        # rows must never survive a write.
        self.columnar.invalidate(pid)
        if pid in self._pinned:
            if self.observer is not None:
                self.observer.on_access(
                    self, pid, self._kinds[pid], "write", False, "pinned"
                )
            return
        if pid in self._written_this_op:
            if self.observer is not None:
                self.observer.on_access(
                    self, pid, self._kinds[pid], "write", False, "dedup"
                )
            return
        self._written_this_op.add(pid)
        self.stats.record_write(self._kinds[pid] is PageKind.DATA)
        self._buffer_cur[pid] = None
        if self.observer is not None:
            self.observer.on_access(
                self, pid, self._kinds[pid], "write", True, "charged"
            )
