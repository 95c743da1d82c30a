"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with one ``except`` clause while still
being able to distinguish configuration problems (:class:`InvalidParameterError`),
malformed node identifiers (:class:`InvalidNodeError`), embedding problems
(:class:`EmbeddingError`) and SIMD simulation faults (:class:`SimulationError`,
:class:`RouteConflictError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "TableDegreeError",
    "InvalidNodeError",
    "InvalidPermutationError",
    "EmbeddingError",
    "DilationViolationError",
    "SimulationError",
    "RouteConflictError",
    "MaskError",
    "ProgramError",
    "ArtifactError",
    "ArtifactCorruptError",
    "TraceError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class InvalidParameterError(ReproError, ValueError):
    """A constructor or function argument is outside its documented domain."""


class TableDegreeError(InvalidParameterError):
    """A degree exceeds the per-degree table bound.

    The rank-indexed fast core precomputes ``(n-1) x n!`` move tables and the
    ``(n!, n)`` permutation population per degree, in RAM, through
    :data:`repro.permutations.ranking.MAX_TABLE_DEGREE` (``n <= 10``; n = 11
    would already need ~3.2 GB of tables).  Beyond it the table-free
    implicit adjacency and the sampled estimators take over, and the error
    message names them.  The int64 rank ceiling of the vectorised batch
    helpers (``n <= 20``) raises the same type.

    Every consumer that *requires* the tables raises this one exception type
    through :func:`repro.permutations.ranking.require_table_degree`;
    consumers with a tuple-based fallback gate it on
    :func:`repro.permutations.ranking.within_table_degree` instead.
    """


class InvalidNodeError(ReproError, ValueError):
    """A node identifier does not belong to the topology it was used with."""


class InvalidPermutationError(InvalidNodeError):
    """A sequence is not a permutation of ``0..n-1``."""


class EmbeddingError(ReproError):
    """A graph embedding is malformed (non-injective, missing nodes, bad paths...)."""


class DilationViolationError(EmbeddingError):
    """An edge of the guest graph was mapped to a path longer than the claimed dilation."""


class SimulationError(ReproError):
    """The SIMD machine simulator was driven into an inconsistent state."""


class RouteConflictError(SimulationError):
    """Two messages tried to use the same directed link during one unit route.

    The paper's Lemma 5 proves that the mesh-on-star simulation never triggers
    this; the simulator raises it eagerly so that the property is *checked*
    rather than assumed.
    """


class MaskError(SimulationError):
    """An activity mask does not match the machine's processing elements."""


class ProgramError(SimulationError):
    """A SIMD program referenced an undefined register or malformed instruction."""


class ArtifactError(ReproError):
    """An experiment artifact is malformed or violates its declared schema.

    Raised by :mod:`repro.experiments.artifacts` when a stored record misses
    required fields, when a result's table columns diverge from the
    experiment's declared :class:`~repro.experiments.artifacts.ArtifactSchema`,
    or when an on-disk store entry cannot be parsed.
    """


class ArtifactCorruptError(ArtifactError):
    """An on-disk store entry is not a readable artifact at all.

    Distinguishes *corrupt* entries (truncated/garbled JSON, files that are
    not artifact records) from merely *stale* ones (valid records whose
    payload no longer matches the current schema).  Stale entries are safe to
    re-run and overwrite; corrupt entries are evidence of a crashed writer or
    external damage, so the runner quarantines them (rename to ``*.corrupt``)
    instead of silently destroying the evidence.
    """


class TraceError(ReproError):
    """A telemetry trace file is unreadable or violates the event schema.

    Raised by :mod:`repro.telemetry.summarize` when a ``REPRO_TRACE`` JSONL
    file cannot be parsed or an event misses required fields -- the trace
    analysis counterpart of :class:`ArtifactError`, and a :class:`ReproError`
    so ``repro-star trace summarize`` reports it as one readable line.
    """

