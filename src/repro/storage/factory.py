"""Store construction switched by argument or configuration.

Every place that used to hard-code ``PageStore(page_size)`` builds its
store through :func:`make_store`, so one switch flips the whole system
— drivers, fuzzers, tests — onto the durable backend.  Arguments left
at ``None`` follow :class:`repro.config.RunConfig`: ``store_backend``
(``sim``, the counted in-memory store and the default everywhere, or
``disk``, :class:`repro.storage.disk.DiskPageStore`), ``store_dir``
(base directory; each disk store gets its own fresh subdirectory, by
default under a per-process temporary directory removed at exit) and
``telemetry``, which gives every disk store built here its own
:class:`repro.obs.telemetry.Telemetry` without touching any call site
or any charged statistic.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path

from repro.config import BACKENDS, RunConfig
from repro.storage.pagestore import PageStore

__all__ = ["make_store"]

#: Buffer-pool budget of a disk store built without ``pool_pages=``.
DEFAULT_POOL_PAGES = 256

_process_tempdir: str | None = None


def _store_base_dir(directory: str | Path | bool) -> Path:
    """``directory``, or the per-process tmp dir for a bare on / off."""
    global _process_tempdir
    if not isinstance(directory, bool):
        return Path(directory)
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

    Explicit arguments beat the configuration.  ``disk_kwargs`` (``io``,
    ``fsync``, ``slot_size``, ...) pass through to
    :class:`~repro.storage.disk.DiskPageStore`; the simulated backend
    rejects them so a misconfiguration cannot silently degrade to
    in-memory.  ``vector`` is accepted for the callers that still
    pass it; ``True`` only.
    """
    if vector is not True:
        raise ValueError("vector must be True: the package has one query path")
    config = RunConfig.from_env()
    name = backend or config.store_backend
    if name not in BACKENDS:
        raise ValueError(f"unknown store backend {name!r}; choose from {BACKENDS}")
    if name == "sim":
        if pool_pages is not None or directory is not None or disk_kwargs:
            raise ValueError(
                "pool_pages/directory/disk options require backend='disk'"
            )
        return PageStore(page_size)
    from repro.storage.disk import DiskPageStore

    base = _store_base_dir(config.store_dir if directory is None else directory)
    base.mkdir(parents=True, exist_ok=True)
    # A name that cannot already exist: a store left under a persistent
    # base is never recovered in place of a fresh one.
    path = tempfile.mkdtemp(prefix="store-", dir=base)
    if "telemetry" not in disk_kwargs and config.telemetry:
        from repro.obs.telemetry import Telemetry

        disk_kwargs["telemetry"] = Telemetry()
    return DiskPageStore(
        path,
        page_size,
        pool_pages=DEFAULT_POOL_PAGES if pool_pages is None else pool_pages,
        **disk_kwargs,
    )
