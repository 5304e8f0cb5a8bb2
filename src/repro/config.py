"""The configuration edge: every ``REPRO_*`` switch, parsed in one place.

:class:`RunConfig` has one field per variable (``store_backend`` is
``REPRO_STORE_BACKEND``) and :meth:`RunConfig.from_env` is the only
code in the package that reads the environment.  It has two callers:
:func:`repro.storage.factory.make_store` (backend, store directory,
telemetry) and ``python -m repro.bench`` (scale, audit, explain);
everything else takes plain values.  One vocabulary serves every
variable:

* **off** — ``""``, ``0``, ``off``, ``no``, ``false``, ``none``; unset
  keeps the field's default;
* **on** — ``1``, ``on``, ``true``, ``yes``; for a path-capable switch
  *the default location*, resolved where it is used;
* anything else is a **path** for a path-capable switch and a
  :class:`ValueError` naming the variable for flags, numbers and the
  backend.  Numbers are not flags: ``REPRO_BENCH_SCALE=0`` is an
  error, not "off", and only ``""`` (or unset) is their default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

__all__ = ["BACKENDS", "RunConfig"]

#: Page-store backends ``REPRO_STORE_BACKEND`` / ``make_store(backend=)`` accept.
BACKENDS = ("sim", "disk")

_OFF = ("", "0", "off", "no", "false", "none")
_ON = ("1", "on", "true", "yes")


def _word(raw: str) -> bool | None:
    """An on/off word as a bool; ``None`` for anything else."""
    word = raw.lower()
    return False if word in _OFF else True if word in _ON else None


def _flag(raw: str) -> bool:
    value = _word(raw)
    if value is None:
        raise ValueError(f"expected one of {_ON} (on) or {_OFF} (off)")
    return value


def _location(raw: str) -> Path | bool:
    """A path-capable switch: an off word is ``False``, an on word ``True``
    (the default location), else the path."""
    raw = raw.strip()
    value = _word(raw)
    return Path(raw) if value is None else value


def _count(raw: str) -> int | None:
    if not raw:
        return None
    if not raw.isdigit() or int(raw) < 1:
        raise ValueError("expected a whole number >= 1")
    return int(raw)


def _backend(raw: str) -> str | None:
    if not raw:
        return None
    if raw.lower() not in BACKENDS:
        raise ValueError(f"expected one of {BACKENDS}")
    return raw.lower()


def _var(parse, default):
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """The ``REPRO_*`` switches of one process, typed.  Path-capable
    fields hold ``False``, ``True`` (the default location) or a path."""

    #: Audit every build's invariants (:mod:`repro.verify`).
    audit: bool = _var(_flag, False)
    #: Records per data file in benches; the paper uses 100 000.
    bench_scale: int = _var(_count, 10_000)
    #: Explain-trace directory (on: ``results/explain``).
    explain: Path | bool = _var(_location, False)
    #: One of :data:`BACKENDS`.
    store_backend: str = _var(_backend, "sim")
    #: Base directory of disk stores (on or off: a per-process tmp dir).
    store_dir: Path | bool = _var(_location, False)
    #: Per-store IO latency in ``io_stats()`` (:mod:`repro.obs.telemetry`).
    telemetry: bool = _var(_flag, False)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "RunConfig":
        """Parse ``environ`` — dictionary lookups only, nothing cached;
        a string outside the vocabulary is a ``ValueError`` naming its variable."""
        values = {}
        for spec in fields(cls):
            name = f"REPRO_{spec.name.upper()}"
            raw = environ.get(name)
            if raw is None:
                continue
            try:
                value = spec.metadata["parse"](raw.strip())
            except ValueError as exc:
                raise ValueError(f"{name}={raw!r}: {exc}") from None
            if value is not None:
                values[spec.name] = value
        return cls(**values)
