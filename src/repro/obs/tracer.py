"""Operation-scoped tracing of page accesses.

A :class:`Tracer` implements the :class:`~repro.storage.pagestore.PageStore`
observer protocol (:class:`StoreObserver`): the store calls
``on_operation_begin`` whenever an access method brackets a new
insert/delete/query, and ``on_access`` for *every* page touch — charged
or free (pinned, path-buffered, write-deduplicated).  The tracer rolls
these into one :class:`Span` per operation, labelled with the structure
and operation currently set via :meth:`Tracer.set_context`.

A span only accumulates counters (a handful of integer adds per
access); the per-page event stream of a query is the explain trace
(:mod:`repro.obs.explain`).  Observation never changes charging
decisions, so a traced run reports exactly the same
:class:`~repro.core.stats.AccessStats` as an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.stats import AccessStats
from repro.storage.page import PageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.storage.pagestore import PageStore

__all__ = [
    "BUILD_OPS",
    "Span",
    "StoreObserver",
    "Tracer",
]

#: Operation labels that belong to the build phase.  ``""`` covers
#: accesses outside any labelled context (implicit setup spans).
BUILD_OPS = frozenset({"", "setup", "insert", "pack"})


@dataclass
class Span:
    """Aggregated accesses of one bracketed operation.

    ``index`` numbers the operations within one ``(structure, op)``
    context, so the i-th query of a query file can be identified.
    """

    structure: str
    op: str
    index: int
    data_reads: int = 0
    data_writes: int = 0
    dir_reads: int = 0
    dir_writes: int = 0
    free_accesses: int = 0

    @property
    def reads(self) -> int:
        return self.data_reads + self.dir_reads

    @property
    def writes(self) -> int:
        return self.data_writes + self.dir_writes

    @property
    def accesses(self) -> int:
        """Charged page accesses — the paper's cost of this operation."""
        return self.reads + self.writes

    def stats(self) -> AccessStats:
        """The span's charged accesses as an :class:`AccessStats`."""
        return AccessStats(
            self.data_reads, self.data_writes, self.dir_reads, self.dir_writes
        )


class StoreObserver(Protocol):
    """What a :class:`~repro.storage.pagestore.PageStore` observer provides."""

    def on_operation_begin(self, store: "PageStore") -> None: ...

    def on_access(
        self,
        store: "PageStore",
        pid: int,
        kind: PageKind,
        rw: str,
        charged: bool,
        reason: str,
    ) -> None: ...


class Tracer:
    """Collect one :class:`Span` per store operation."""

    def __init__(self):
        self._spans: list[Span] = []
        self._open: Span | None = None
        self._structure = ""
        self._op = ""
        self._op_counts: dict[tuple[str, str], int] = {}

    # -- labelling ---------------------------------------------------------

    def set_context(self, structure: str | None = None, op: str | None = None) -> "Tracer":
        """Label subsequent spans; closes any span still open.

        Experiment drivers call ``set_context(structure=name)`` before
        running a structure and ``set_context(op=label)`` before each
        operation loop; the access methods themselves stay unaware of
        the tracer.
        """
        self._close()
        if structure is not None:
            self._structure = structure
        if op is not None:
            self._op = op
        return self

    def attach(self, store: "PageStore") -> "Tracer":
        """Install this tracer as ``store``'s observer and return it."""
        store.observer = self
        return self

    # -- StoreObserver protocol --------------------------------------------

    def on_operation_begin(self, store: "PageStore") -> None:
        self._close()
        key = (self._structure, self._op)
        index = self._op_counts.get(key, 0)
        self._op_counts[key] = index + 1
        self._open = Span(self._structure, self._op, index)

    def on_access(
        self,
        store: "PageStore",
        pid: int,
        kind: PageKind,
        rw: str,
        charged: bool,
        reason: str,
    ) -> None:
        span = self._open
        if span is None:
            # An access outside any operation bracket (setup, audits):
            # open an implicit span so nothing goes unaccounted.
            self.on_operation_begin(store)
            span = self._open
        if charged:
            if rw == "read":
                if kind is PageKind.DATA:
                    span.data_reads += 1
                else:
                    span.dir_reads += 1
            else:
                if kind is PageKind.DATA:
                    span.data_writes += 1
                else:
                    span.dir_writes += 1
        else:
            span.free_accesses += 1

    # -- results -----------------------------------------------------------

    def _close(self) -> None:
        if self._open is not None:
            self._spans.append(self._open)
            self._open = None

    def finish(self) -> list[Span]:
        """Close any open span and return all recorded spans."""
        self._close()
        return self._spans

    def stats(self) -> AccessStats:
        """Total charged accesses over all spans recorded so far."""
        total = AccessStats()
        spans = self._spans if self._open is None else [*self._spans, self._open]
        for span in spans:
            total.data_reads += span.data_reads
            total.data_writes += span.data_writes
            total.dir_reads += span.dir_reads
            total.dir_writes += span.dir_writes
        return total
