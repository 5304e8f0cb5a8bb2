"""Store construction switched by configuration or environment.

Every place that used to hard-code ``PageStore(page_size)`` builds its
store through :func:`make_store`, so one environment variable flips the
whole system — drivers, fuzzers, tests — onto the durable backend:

* ``REPRO_STORE_BACKEND`` — ``sim`` (default, the counted in-memory
  store) or ``disk`` (:class:`repro.storage.disk.DiskPageStore`).
* ``REPRO_STORE_DIR`` — base directory for disk stores; each store gets
  its own fresh subdirectory.  Defaults to a per-process temporary
  directory removed at exit.
* ``REPRO_STORE_POOL`` — buffer-pool budget in pages (default 256).
* ``REPRO_STORE_POISON`` — ``1`` poisons evicted page objects so stale
  references fail loudly (the aliasing check the tier-1 suite runs
  under in CI).
* ``REPRO_STORE_FSYNC`` — ``0`` skips the commit fsync (benches only).
* ``REPRO_TELEMETRY`` — ``1`` attaches the process-wide
  :class:`repro.obs.telemetry.Telemetry` to every disk store built
  here, so IO latencies, commit/checkpoint timings and pool gauges are
  recorded without touching any call site.  Telemetry never changes
  charged statistics or results.

The simulated backend stays the default everywhere, so existing CI
identity gates are untouched.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
from pathlib import Path

from repro.storage.pagestore import PageStore

__all__ = ["BACKENDS", "backend_name", "make_store"]

BACKENDS = ("sim", "disk")

BACKEND_ENV = "REPRO_STORE_BACKEND"
DIR_ENV = "REPRO_STORE_DIR"
POOL_ENV = "REPRO_STORE_POOL"
POISON_ENV = "REPRO_STORE_POISON"
FSYNC_ENV = "REPRO_STORE_FSYNC"

_counter = itertools.count()
_process_tempdir: str | None = None


def backend_name(backend: str | None = None) -> str:
    """Resolve the effective backend (explicit beats environment)."""
    name = backend or os.environ.get(BACKEND_ENV, "").strip() or "sim"
    if name not in BACKENDS:
        raise ValueError(f"unknown store backend {name!r}; choose from {BACKENDS}")
    return name


def _store_base_dir(directory: str | Path | None) -> Path:
    global _process_tempdir
    if directory is not None:
        return Path(directory)
    env = os.environ.get(DIR_ENV, "").strip()
    if env:
        return Path(env)
    if _process_tempdir is None:
        _process_tempdir = tempfile.mkdtemp(prefix="repro-store-")
        atexit.register(shutil.rmtree, _process_tempdir, ignore_errors=True)
    return Path(_process_tempdir)


def make_store(
    page_size: int = 512,
    *,
    vector: bool = True,
    backend: str | None = None,
    directory: str | Path | None = None,
    pool_pages: int | None = None,
    **disk_kwargs,
) -> PageStore:
    """A fresh page store on the configured backend.

    ``disk_kwargs`` (``io``, ``fsync``, ``paranoid``, ``poison``,
    ``slot_size``, ...) pass through to
    :class:`~repro.storage.disk.DiskPageStore`; the simulated backend
    rejects them so a misconfiguration cannot silently degrade to
    in-memory.
    """
    name = backend_name(backend)
    if name == "sim":
        if pool_pages is not None or directory is not None or disk_kwargs:
            raise ValueError(
                "pool_pages/directory/disk options require backend='disk'"
            )
        return PageStore(page_size, vector=vector)
    from repro.storage.disk import DiskPageStore

    base = _store_base_dir(directory)
    path = base / f"store-{os.getpid()}-{next(_counter)}"
    if pool_pages is None:
        pool_pages = int(os.environ.get(POOL_ENV, "256") or "256")
    disk_kwargs.setdefault(
        "poison", os.environ.get(POISON_ENV, "").strip() == "1"
    )
    disk_kwargs.setdefault(
        "fsync", os.environ.get(FSYNC_ENV, "").strip() != "0"
    )
    if "telemetry" not in disk_kwargs:
        from repro.obs.telemetry import active_telemetry

        telemetry = active_telemetry()
        if telemetry is not None:
            disk_kwargs["telemetry"] = telemetry
    return DiskPageStore(
        path, page_size, pool_pages=pool_pages, vector=vector, **disk_kwargs
    )
