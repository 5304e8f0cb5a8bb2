"""Picklable job specs and the worker-side executor.

One :class:`JobSpec` names one independent cell of the paper's
comparison grid — a ``(data file, structure)`` pair together with every
parameter that determines its outcome (scale, page size, query seed).
Specs carry *names*, never callables, so they cross a ``spawn`` process
boundary; the worker resolves the structure through the standard
testbed registries and regenerates the data file from its deterministic
generator.  :func:`execute_job` then runs the spec's
:func:`~repro.core.comparison.run_cell` — the one cell function, which
traces the cell under its own :class:`~repro.obs.tracer.Tracer` — so
the merged spans, :class:`~repro.core.comparison.MethodResult` numbers
and :class:`~repro.core.stats.AccessStats` totals do not depend on
which process ran the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.comparison import QUERY_SEEDS, StructureOutcome, run_cell
from repro.core.testbed import standard_factories
from repro.obs.tracer import Span

__all__ = [
    "JobSpec",
    "StructureOutcome",
    "JobResult",
    "execute_job",
    "load_job_data",
    "resolve_factory",
    "file_specs",
]

@dataclass(frozen=True)
class JobSpec:
    """Everything that determines one build+query cell, by value.

    ``file`` names a registered data file (regenerated in the worker);
    it is ``None`` for ad-hoc data the runner ships inline.
    ``derive_packed`` makes the job also produce the BUDDY+ row (pack +
    re-query on the same store).
    """

    kind: str  # "pam" | "sam"
    structure: str
    scale: int
    page_size: int = 512
    seed: int | None = None
    file: str | None = None
    derive_packed: bool = False

    def __post_init__(self):
        if self.kind not in ("pam", "sam"):
            raise ValueError(f"kind must be 'pam' or 'sam', not {self.kind!r}")

    @property
    def query_seed(self) -> int:
        return self.seed if self.seed is not None else QUERY_SEEDS[self.kind]


@dataclass
class JobResult:
    """Everything a worker sends back for one spec.

    ``built`` is the built method, for callers in the executing
    process; it is never pickled, so pooled results carry ``None``.
    """

    spec: JobSpec
    structures: list[StructureOutcome]
    spans: list[Span] = field(default_factory=list)
    built: object = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "built": None}


def resolve_factory(kind: str, structure: str):
    """Look a structure name up in the standard testbed registries.

    Parallel execution ships names, not closures, so only registered
    structures can run in workers; anything else raises a ``KeyError``
    that lists the valid names.
    """
    registry = standard_factories(kind)
    try:
        return registry[structure]
    except KeyError:
        raise KeyError(
            f"unknown {kind.upper()} structure {structure!r}; parallel jobs can "
            f"only run registered structures {sorted(registry)}"
        ) from None


def load_job_data(spec: JobSpec):
    """Regenerate the spec's data file from its deterministic generator."""
    if spec.file is None:
        raise ValueError(f"{spec.kind} {spec.structure} spec carries inline data, nothing to load")
    if spec.kind == "pam":
        from repro.workloads.distributions import generate_point_file

        return generate_point_file(spec.file, spec.scale)
    from repro.workloads.rect_distributions import generate_rect_file

    return generate_rect_file(spec.file, spec.scale)


def execute_job(
    spec: JobSpec,
    data: Sequence | None = None,
    explain_dir: Path | None = None,
    audit: bool = False,
    factory=None,
) -> JobResult:
    """Run the spec's cell and return its complete outcome.

    This is the function a pool worker runs (and ``workers=1`` runs
    inline): resolve the factory by name — unless the caller, running
    the job in its own process, hands one in — and call
    :func:`~repro.core.comparison.run_cell`, which traces the cell with
    its own tracer.  ``explain_dir`` and ``audit`` are the caller's
    resolved values; cells of a named data file trace into a
    subdirectory of that name, or each file's traces would overwrite
    the last.
    """
    if data is None:
        data = load_job_data(spec)
    if factory is None:
        factory = resolve_factory(spec.kind, spec.structure)
    if explain_dir is not None and spec.file:
        explain_dir = Path(explain_dir) / spec.file
    rows, method, spans = run_cell(
        spec.kind,
        spec.structure,
        factory,
        data,
        page_size=spec.page_size,
        seed=spec.query_seed,
        explain_dir=explain_dir,
        audit=audit,
        derive_packed=spec.derive_packed,
    )
    return JobResult(spec, rows, spans, built=method)


def file_specs(
    kind: str,
    file_name: str,
    scale: int,
    *,
    structures: Sequence[str] | None = None,
    page_size: int = 512,
    seed: int | None = None,
) -> list[JobSpec]:
    """One spec per standard structure of ``kind`` on ``file_name``.

    The PAM BUDDY cell also derives BUDDY+; ``seed`` defaults to the
    kind's query seed.
    """
    names = structures if structures is not None else standard_factories(kind)
    return [
        JobSpec(
            kind=kind,
            structure=name,
            scale=scale,
            page_size=page_size,
            seed=QUERY_SEEDS[kind] if seed is None else seed,
            file=file_name,
            derive_packed=(kind == "pam" and name == "BUDDY"),
        )
        for name in names
    ]
