"""Persistent, content-addressed artifact store for experiment results.

Every executed ``(experiment, profile, params)`` combination maps to one JSON
file on disk whose name embeds a *content-addressed key* -- the SHA-256 digest
of the canonical JSON encoding of exactly those three inputs.  The key makes
re-runs resumable (`repro-star run all --jobs N --out results/` skips every
shard whose key is already present) and makes two stores diffable: identical
inputs always land in identically named files.

The stored *record* wraps the exact payload the serial ``repro-star run
--json`` path emits (``profile``, ``params``, then the
:meth:`~repro.experiments.report.ExperimentResult.to_dict` fields) together
with store-only metadata -- the key, the wall-clock of the run and an
environment stamp.  Aggregating a store therefore reproduces the serial JSON
artifact list bit for bit: the serial engine is the parity reference for the
sharded one (:mod:`repro.experiments.runner`).

Each experiment declares the shape of its artifact as an
:class:`ArtifactSchema` (column names plus required summary keys) in
:mod:`repro.experiments.schemas`, which its module re-exports as
``ARTIFACT_SCHEMA``; the runner validates every result against the declared
schema before it is written.

Layout of a store directory::

    results/
        FIG2__fast__1f0f95a0c99f0f60.json
        THM4__fast__74b7a5ca4a9b5f2e.json
        ...

File names are ``<experiment_id>__<profile>__<key>.json`` so a directory
listing is human-readable while the key keeps distinct parameterisations
apart.

Damaged stores degrade instead of dying: entries that cannot be parsed raise
:class:`~repro.exceptions.ArtifactCorruptError` (the runner quarantines them
as ``*.corrupt`` via :meth:`ArtifactStore.quarantine` rather than silently
overwriting the evidence), while valid-but-stale records -- an old
``schema_version`` or a payload that no longer matches the experiment's
declared schema -- raise plain :class:`~repro.exceptions.ArtifactError` and
are safe to re-run and overwrite.  :meth:`ArtifactStore.scan` loads a store
best-effort for report rendering over partially damaged directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.exceptions import ArtifactCorruptError, ArtifactError
from repro.experiments.report import ExperimentResult, json_safe

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactSchema",
    "ArtifactStore",
    "artifact_key",
    "canonical_json",
    "build_payload",
    "build_record",
    "validate_payload",
    "validate_record",
    "environment_stamp",
    "claim_verdict",
]

#: Version of the on-disk record layout (bumped on incompatible changes).
SCHEMA_VERSION = 1

#: Keys every stored record must carry.
_RECORD_KEYS = ("schema_version", "key", "elapsed_seconds", "environment", "payload")

#: Keys every payload (the serial ``--json`` artifact) must carry, in order.
PAYLOAD_KEYS = (
    "profile",
    "params",
    "experiment_id",
    "title",
    "headers",
    "rows",
    "notes",
    "summary",
)


@dataclass(frozen=True)
class ArtifactSchema:
    """Declared shape of one experiment's artifact.

    Parameters
    ----------
    columns : tuple of str
        The exact table headers the experiment emits.  Experiment modules
        build their result with ``headers=list(ARTIFACT_SCHEMA.columns)`` so
        the declaration cannot drift from the implementation.
    summary_keys : tuple of str, optional
        Summary keys the experiment guarantees to populate.  ``claim_holds``
        is required of every experiment; extra keys extend the guarantee.
        A result may add further summary entries beyond the declared ones.
    """

    columns: Tuple[str, ...]
    summary_keys: Tuple[str, ...] = ("claim_holds",)

    def __post_init__(self):
        if "claim_holds" not in self.summary_keys:
            object.__setattr__(
                self, "summary_keys", ("claim_holds",) + tuple(self.summary_keys)
            )


def canonical_json(value: object) -> str:
    """Canonical JSON encoding of *value*: JSON-safe, sorted keys, no spaces.

    Parameters
    ----------
    value : object
        Any value accepted by :func:`repro.experiments.report.json_safe`.

    Returns
    -------
    str
        A deterministic encoding -- equal inputs produce equal strings, so the
        string is suitable hashing material for :func:`artifact_key`.
    """
    return json.dumps(json_safe(value), sort_keys=True, separators=(",", ":"))


def artifact_key(experiment_id: str, profile: str, params: Mapping[str, object]) -> str:
    """The content-addressed key of one ``(experiment, profile, params)`` shard.

    Parameters
    ----------
    experiment_id : str
        Registry identifier (``"THM4"``, ...).
    profile : str
        Profile name the parameters came from.
    params : mapping
        The resolved run parameters (profile entries plus explicit overrides).

    Returns
    -------
    str
        First 16 hex digits of the SHA-256 of the canonical JSON of the three
        inputs.  Key order inside *params* does not matter.
    """
    material = canonical_json(
        {"experiment_id": experiment_id, "profile": profile, "params": dict(params)}
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def claim_verdict(summary: Mapping[str, object]) -> bool:
    """Whether a payload summary reports its paper claim as holding.

    The one reader of ``summary["claim_holds"]`` for the runner, the reports
    and the stored-result analysis: a missing key means the claim FAILS --
    nothing defaults to "pass".
    """
    return bool(summary.get("claim_holds", False))


def environment_stamp() -> Dict[str, object]:
    """Provenance stamp recorded with every artifact.

    Returns
    -------
    dict
        Interpreter version/implementation, platform, machine and the NumPy
        version in use.
    """
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
    }


def build_payload(
    profile: str, params: Mapping[str, object], result: ExperimentResult
) -> Dict[str, object]:
    """The serial ``--json`` artifact for one experiment run.

    This is the *single* construction point of the payload format: the serial
    CLI path, the sharded runner and the aggregation step all call it, which
    is what keeps serial and sharded outputs bit-identical.

    Parameters
    ----------
    profile : str
        Profile the run parameters came from.
    params : mapping
        Resolved parameters passed to ``run()``.
    result : ExperimentResult
        The experiment's output.

    Returns
    -------
    dict
        ``{"profile", "params", "experiment_id", "title", "headers", "rows",
        "notes", "summary"}`` with every value JSON-safe.
    """
    return {
        "profile": profile,
        "params": {key: json_safe(value) for key, value in params.items()},
        **result.to_dict(),
    }


def build_record(
    key: str,
    payload: Mapping[str, object],
    elapsed_seconds: float,
    environment: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Wrap a payload with store metadata into an on-disk record.

    Parameters
    ----------
    key : str
        Content-addressed key from :func:`artifact_key`.
    payload : mapping
        Output of :func:`build_payload`.
    elapsed_seconds : float
        Wall-clock of the ``run()`` call.
    environment : mapping, optional
        Pre-computed :func:`environment_stamp` (computed fresh when omitted).

    Returns
    -------
    dict
        The record written by :meth:`ArtifactStore.write`.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "elapsed_seconds": round(float(elapsed_seconds), 6),
        "environment": dict(environment) if environment is not None else environment_stamp(),
        "payload": dict(payload),
    }


def validate_payload(payload: Mapping[str, object], schema: Optional[ArtifactSchema]) -> None:
    """Check a payload against the experiment's declared schema.

    Parameters
    ----------
    payload : mapping
        Output of :func:`build_payload`.
    schema : ArtifactSchema or None
        The experiment's declaration; ``None`` skips the column/summary checks
        but still validates the payload envelope.

    Raises
    ------
    ArtifactError
        If envelope keys are missing, the headers differ from the declared
        columns, a row width differs from the column count, or a required
        summary key is absent.
    """
    missing = [k for k in PAYLOAD_KEYS if k not in payload]
    if missing:
        raise ArtifactError(
            f"artifact payload for {payload.get('experiment_id')!r} is missing "
            f"keys: {', '.join(missing)}"
        )
    if schema is None:
        return
    experiment_id = payload["experiment_id"]
    headers = tuple(payload["headers"])
    if headers != tuple(schema.columns):
        raise ArtifactError(
            f"{experiment_id}: artifact headers {headers!r} do not match the "
            f"declared schema columns {tuple(schema.columns)!r}"
        )
    for index, row in enumerate(payload["rows"]):
        if len(row) != len(schema.columns):
            raise ArtifactError(
                f"{experiment_id}: row {index} has {len(row)} cells, "
                f"schema declares {len(schema.columns)} columns"
            )
    summary = payload["summary"]
    missing_summary = [k for k in schema.summary_keys if k not in summary]
    if missing_summary:
        raise ArtifactError(
            f"{experiment_id}: summary is missing declared keys: "
            f"{', '.join(missing_summary)}"
        )


def validate_record(record: Mapping[str, object]) -> None:
    """Check the envelope of an on-disk record.

    Raises
    ------
    ArtifactCorruptError
        If any of the required record keys is absent (the file is not an
        artifact record at all -- quarantine material, not re-run material).
    ArtifactError
        If the record was written under a different (incompatible)
        ``schema_version`` -- a valid but *stale* record, safe to re-run and
        overwrite.
    """
    if not isinstance(record, Mapping):
        raise ArtifactCorruptError(
            f"artifact record is {type(record).__name__}, not an object"
        )
    missing = [k for k in _RECORD_KEYS if k not in record]
    if missing:
        raise ArtifactCorruptError(
            f"artifact record is missing keys: {', '.join(missing)}"
        )
    if not isinstance(record["payload"], Mapping):
        raise ArtifactCorruptError(
            f"artifact payload is {type(record['payload']).__name__}, not an object"
        )
    if record["schema_version"] != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact record has schema_version {record['schema_version']!r}, "
            f"this code reads version {SCHEMA_VERSION}; re-run against a fresh "
            "--out directory (stale artifacts cannot be reused across layout "
            "changes)"
        )


class ArtifactStore:
    """A directory of content-addressed experiment artifacts.

    Parameters
    ----------
    root : str or Path
        Store directory; created lazily on first write.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- addressing ---------------------------------------------------------

    @staticmethod
    def filename(experiment_id: str, profile: str, key: str) -> str:
        """File name of one artifact: ``<id>__<profile>__<key>.json``."""
        return f"{experiment_id}__{profile}__{key}.json"

    def path_for(self, experiment_id: str, profile: str, key: str) -> Path:
        """Absolute path of the artifact with the given address."""
        return self.root / self.filename(experiment_id, profile, key)

    def exists(self, experiment_id: str, profile: str, key: str) -> bool:
        """Whether the artifact with the given address is present."""
        return self.path_for(experiment_id, profile, key).is_file()

    # -- IO -----------------------------------------------------------------

    def write(self, record: Mapping[str, object]) -> Path:
        """Atomically persist *record*, returning the file written.

        The record is first written to a temporary file in the store directory
        and then renamed into place, so a concurrently reading process (or an
        interrupted run) never observes a half-written artifact.

        Raises
        ------
        ArtifactError
            If the record envelope is malformed (:func:`validate_record`).
        """
        validate_record(record)
        payload = record["payload"]
        path = self.path_for(payload["experiment_id"], payload["profile"], record["key"])
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=2)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already renamed or gone
                pass
            raise
        telemetry.add_counter(
            "store.write",
            bytes=path.stat().st_size,
            experiment=payload["experiment_id"],
            profile=payload["profile"],
            key=record["key"],
        )
        return path

    def read(self, experiment_id: str, profile: str, key: str) -> Dict[str, object]:
        """Load one record by address.

        Raises
        ------
        ArtifactError
            If the file is absent, not valid JSON, or missing record keys.
        """
        return self.read_path(self.path_for(experiment_id, profile, key))

    def read_path(self, path) -> Dict[str, object]:
        """Load and validate the record stored at *path*.

        Raises :class:`~repro.exceptions.ArtifactCorruptError` (a subclass of
        ``ArtifactError``) when the file cannot be parsed at all -- callers
        that want to keep the evidence route such paths to
        :meth:`quarantine` instead of overwriting them.
        """
        path = Path(path)
        if not path.is_file():
            raise ArtifactError(f"no artifact at {path}")
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ArtifactCorruptError(
                f"artifact {path} is not valid JSON: {error}"
            ) from error
        validate_record(record)
        return record

    def quarantine(self, experiment_id: str, profile: str, key: str, reason: str = "") -> Optional[Path]:
        """Move a corrupt artifact aside as ``<name>.json.corrupt``.

        Corrupt entries are *renamed*, never overwritten: the damaged bytes
        stay on disk for post-mortem while the original address becomes free
        for a fresh run.  ``*.corrupt`` files are invisible to
        :meth:`entries`/:meth:`exists` (the glob only matches ``*.json``) and
        are listed by :meth:`corrupt_files`.

        Returns the quarantine path, or ``None`` when the artifact vanished
        before it could be moved (e.g. a concurrent writer already healed it).
        The *reason* is recorded in a ``.corrupt.reason`` sidecar next to the
        quarantined file so the cause survives the process.
        """
        path = self.path_for(experiment_id, profile, key)
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None
        telemetry.add_counter(
            "store.quarantine",
            bytes=target.stat().st_size,
            experiment=experiment_id,
            profile=profile,
            key=key,
            reason=reason or "unspecified",
        )
        if reason:
            try:
                target.with_name(target.name + ".reason").write_text(reason + "\n")
            except OSError:  # pragma: no cover - the rename already succeeded
                pass
        return target

    def corrupt_files(self) -> List[Path]:
        """Quarantined ``*.corrupt`` entries currently in the store (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json.corrupt"))

    def scan(self) -> Tuple[List[Dict[str, object]], List[Tuple[Path, str]]]:
        """All readable records plus the unreadable paths, without raising.

        The graceful-degradation counterpart of :meth:`entries`: a report over
        a store that survived a crash should render everything readable and
        *annotate* the rest, not die with a traceback.  Returns
        ``(records, unreadable)`` where ``unreadable`` pairs each bad path
        with the reason it could not be loaded.
        """
        records: List[Dict[str, object]] = []
        unreadable: List[Tuple[Path, str]] = []
        if not self.root.is_dir():
            return records, unreadable
        for path in sorted(self.root.glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                records.append(self.read_path(path))
            except ArtifactError as error:
                unreadable.append((path, str(error)))
        return records, unreadable

    def entries(self) -> List[Dict[str, object]]:
        """All records in the store, sorted by file name.

        File names start with ``<experiment_id>__<profile>__``, so the order
        is deterministic for a given store content (alphabetical, *not*
        registry order -- :func:`repro.experiments.runner.registry_sorted`
        re-orders for reports).
        """
        if not self.root.is_dir():
            return []
        return [
            self.read_path(path)
            for path in sorted(self.root.glob("*.json"))
            if not path.name.startswith(".")
        ]

    def keys(self) -> List[str]:
        """The content-addressed keys present in the store (sorted by file name)."""
        return [record["key"] for record in self.entries()]

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for p in self.root.glob("*.json") if not p.name.startswith("."))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r}, {len(self)} artifacts)"
