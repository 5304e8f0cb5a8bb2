"""Correctness verification: invariant auditors and a differential fuzzer.

``repro.verify`` is the testing subsystem behind the paper repro: every
access method exposes ``audit()`` / ``check_invariants()`` (see
:mod:`repro.core.interfaces`), dispatched here to a per-structure
auditor that checks the structure's own page walk (the
``_snapshot_pages()`` views snapshots and explain read) and asserts
structural invariants.
:mod:`repro.verify.fuzz` drives seeded operation sequences against each
structure and a brute-force oracle, auditing along the way and shrinking
failures to minimal reproducers.
"""

from repro.verify.invariants import Audit, AuditError, Violation
from repro.verify.auditors import run_audit

__all__ = ["Audit", "AuditError", "Violation", "run_audit"]
