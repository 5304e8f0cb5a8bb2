"""Write-barrier auditor: the page-mutation contract, enforced.

The contract every access method owes its page store: **a page's
serialised image may change only inside an operation that calls**
``write()``, ``allocate()`` **or** ``free()`` **on it**, and derived
caches (NumPy views, memoised blocks) never enter the image.  The
simulated store cannot lose a write, so it never notices a breach; the
durable store (:mod:`repro.storage.disk`) drops clean pages from its
buffer pool on the strength of exactly this promise.

:class:`WriteBarrier` makes a breach a test failure on both backends.
It installs itself as the store's passive observer (see
:class:`repro.obs.tracer.StoreObserver` — observation can never change
what is charged), serialises every live page with the durable store's
own ``_dumps`` at each ``begin_operation()`` — the same boundary at
which the durable store commits, just after it — and raises an
:class:`~repro.verify.invariants.AuditError` for every page whose image
moved since the previous boundary without a ``write()``.  A page that
first appears in a window was allocated in it, and a page that vanished
was freed (page ids are never reused), so ``write`` events are all the
barrier needs to see.

The same windows enforce the access contract of
:meth:`PageStore.held <repro.storage.pagestore.PageStore.held>`: a page
reached through ``held()`` must be one the operation reads, writes or
allocates, before or after the call, unless it is pinned.  Any other
page is an access no table counts (``contract.uncharged``).  The barrier
wraps the instance's ``held`` to see the calls and stays off the
observer stream, so explain traces do not change.

On the durable store the barrier reads each page through ``peek``: a
resident page's live object, a non-resident one's image, read from the
log record that committed it; a peek neither admits a page nor moves
its frame in the pool's order.  What it cannot see there is a mutation
of an object that has left the pool in the same window (a ``peek``-ed
page evicted unread, or an object retained across an eviction): the
store holds no trace of it.
The simulated store, where every object stays live, sees the first; the
oracle and the audit see the second.

The cost is O(live pages) per operation.  That is a fuzz cost
(:mod:`repro.verify.fuzz` installs the barrier on every run, on both
backends), never a measured one.
"""

from __future__ import annotations

from repro.storage.disk import _dumps
from repro.storage.pagestore import PageStore
from repro.verify.invariants import AuditError, Violation

__all__ = ["WriteBarrier"]


class WriteBarrier:
    """Audit ``store`` for page images that change without a ``write()``
    and for pages reached through ``held()`` that the operation never
    reads, writes or allocates.

    Operation windows are numbered by their opening ``begin_operation()``
    call, from 0; set-up work before the first bracket is window -1.
    Code that runs outside any bracket of its own (BUDDY+ ``pack()``)
    belongs to the window it ran in.
    """

    def __init__(self, store: PageStore):
        self.store = store
        self.op = -1
        self._written: set[int] = set()
        self._read: set[int] = set()
        #: pid -> "kind, page class" of each unpinned page ``held()`` gave out.
        self._held: dict[int, str] = {}
        self._images = self._snapshot()
        self._inner = store.observer
        store.observer = self
        self._store_held = store.held
        store.held = self._record_held

    def _snapshot(self) -> dict[int, bytes]:
        store = self.store
        return {pid: _dumps(store.peek(pid)) for pid in store.page_ids()}

    def _record_held(self, pid: int):
        obj = self._store_held(pid)
        if pid not in self._held and not self.store.is_pinned(pid):
            self._held[pid] = f"{self.store.kind(pid).value}, {type(obj).__name__}"
        return obj

    # -- StoreObserver -----------------------------------------------------

    def on_operation_begin(self, store) -> None:
        self.check()
        self.op += 1
        if self._inner is not None:
            self._inner.on_operation_begin(store)

    def on_access(self, store, pid, kind, rw, charged, reason) -> None:
        (self._written if rw == "write" else self._read).add(pid)
        if self._inner is not None:
            self._inner.on_access(store, pid, kind, rw, charged, reason)

    # -- the audit -----------------------------------------------------------

    def check(self) -> None:
        """Close the current window: compare every live page with its
        image at the previous boundary, and every page ``held()`` gave
        out with what the window read, wrote and allocated.  Call it once
        more after the last operation; every earlier window is closed by
        the next ``begin_operation()``."""
        before, written, read, held = self._images, self._written, self._read, self._held
        self._images = self._snapshot()
        self._written, self._read, self._held = set(), set(), {}
        violations = []
        for pid, image in self._images.items():
            old = before.get(pid)
            if old is None or old == image or pid in written:
                continue
            violations.append(
                Violation(
                    "contract.unwritten",
                    f"page {pid} ({self.store.kind(pid).value}, "
                    f"{type(self.store.peek(pid)).__name__}) changed during "
                    f"operation {self.op} without write(): image "
                    f"{len(old)} -> {len(image)} bytes",
                )
            )
        for pid, what in held.items():
            # A page missing from the window's opening snapshot was
            # allocated in it.
            if pid in read or pid in written or pid not in before:
                continue
            violations.append(
                Violation(
                    "contract.uncharged",
                    f"page {pid} ({what}) reached through held() during "
                    f"operation {self.op}, which never read, wrote or "
                    f"allocated it",
                )
            )
        if violations:
            raise AuditError("page-access contract", violations)
