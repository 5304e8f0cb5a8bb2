"""Content-addressed on-disk cache of finished build+query jobs.

Every experiment cell of the paper's grid is a pure function of its
:class:`~repro.parallel.jobs.JobSpec` — the data file generators are
deterministic in ``(name, n, seed)``, the structures are deterministic
in their insertion sequence, and the query files are fixed by seed.  A
finished :class:`~repro.parallel.jobs.JobResult` can therefore be
cached on disk under a digest of the spec plus a *code fingerprint*
(a hash over every ``repro`` source file), so a repeated bench session
skips all rebuilds and any change to the code base invalidates every
entry automatically.

The bench entry points place it by ``RunConfig.build_cache``
(:func:`resolve_cache`): on by default, under ``results/.build_cache``.

Entries are written atomically (temp file + rename) so concurrent
sessions sharing one cache directory never observe torn pickles.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

__all__ = [
    "BuildCache",
    "resolve_cache",
    "code_fingerprint",
    "default_results_root",
]

_fingerprint_cache: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any edit anywhere in the package — an access method, the page
    store's charging rules, a workload generator — changes the
    fingerprint and with it every cache key, which is the only safe
    default for a simulation whose output *is* its code's behaviour.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def resolve_cache(value: Path | bool) -> "BuildCache | None":
    """The cache a ``RunConfig.build_cache`` value names (``None`` = off)."""
    if value is True:
        return BuildCache(default_results_root() / ".build_cache")
    return BuildCache(value) if value else None


def default_results_root() -> Path:
    """The repo's ``results/`` directory when run from a checkout.

    Shared by every artefact writer (build cache, benches, explain
    traces) so they all agree on one location; falls back to
    ``./results`` outside a checkout.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "results").is_dir() or (parent / "pyproject.toml").is_file():
            return parent / "results"
    return Path.cwd() / "results"


class BuildCache:
    """Pickle store of :class:`~repro.parallel.jobs.JobResult` objects.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first :meth:`store`).
    fingerprint:
        Override of :func:`code_fingerprint`, for tests that pin key
        sensitivity without editing source files.
    """

    def __init__(self, root: str | Path, fingerprint: str | None = None):
        self.root = Path(root)
        self._fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    # -- keys --------------------------------------------------------------

    def key(self, spec) -> str:
        """Hex digest addressing ``spec`` under the current code."""
        payload = dict(spec.cache_fields())
        payload["code"] = self.fingerprint
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def path_for(self, spec) -> Path:
        return self.root / f"{self.key(spec)}.pkl"

    # -- access ------------------------------------------------------------

    def load(self, spec):
        """The cached :class:`JobResult` for ``spec``, or ``None``.

        A hit requires the stored spec to equal the requested one — a
        digest collision (or a truncated entry) degrades to a miss.
        """
        path = self.path_for(spec)
        try:
            with path.open("rb") as fh:
                stored_spec, result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            self.misses += 1
            return None
        if stored_spec != spec:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, spec, result) -> Path:
        """Persist ``result`` for ``spec`` atomically and return its path."""
        path = self.path_for(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump((spec, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BuildCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
