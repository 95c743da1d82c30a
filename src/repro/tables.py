"""Out-of-core move tables: a content-addressed, memmap-backed table cache.

Move tables are pure functions of ``(generators, n)`` -- the same observation
that makes experiment artifacts content-addressable
(:mod:`repro.experiments.artifacts`) applies to the tables themselves.  This
module builds each table set **once** into an on-disk ``.npy`` file and serves
it back as ``np.memmap`` views, which is what lifts the dense-table ceiling
from :data:`~repro.permutations.ranking.MAX_DENSE_DEGREE` (everything in RAM)
to :data:`~repro.permutations.ranking.MAX_TABLE_DEGREE` (streamed from disk):
S_11's tables are ~3.2 GB -- perfectly reasonable as a file, unreasonable as a
per-process allocation.

Layout and addressing
---------------------
One file per table set, named ``moves__n<degree>__<key>.npy`` where ``key`` is
the first 16 hex digits of the SHA-256 of the canonical JSON of
``{"n": n, "generators": [...]}`` (:func:`table_key`).  The array is stored
**node-major** with shape ``(n!, num_generators)`` so that

* column ``g`` (``mm[:, g]``) *is* generator ``g``'s move table -- the tuple
  :func:`repro.permutations.ranking.move_tables_for` hands out is just the
  column views of one shared memmap; and
* the memmap itself *is* the adjacency index table
  (``Topology.neighbor_index_table()``) -- :func:`stacked_neighbor_table`
  recognises column views of a common base and returns the base instead of
  re-stacking, so no dense copy is ever materialised.

A ``.meta.json`` sidecar records the degree, key and generator set for
:func:`list_tables` and the CLI (``repro-star tables list``).

Builds are atomic: the array is written to a ``*.tmp-<pid>`` sibling in
blocks of :func:`repro.backend.resolve_chunk_nodes` ranks (vectorised
unranking via :func:`repro.permutations.ranking.permutations_slice`, then one
:func:`~repro.permutations.ranking.ranks_of` pass per generator) and renamed
into place with :func:`os.replace`, so concurrent builders race benignly and
a crashed build never leaves a half-written table behind.

The cache directory defaults to ``~/.cache/repro-star/tables`` and is
overridden with the ``REPRO_TABLE_CACHE`` environment variable
(:data:`repro.backend.TABLE_CACHE_ENV`), read at call time like the other
backend knobs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro import telemetry
from repro.backend import TABLE_CACHE_ENV, resolve_chunk_nodes

__all__ = [
    "TABLE_CACHE_ENV",
    "table_cache_dir",
    "table_key",
    "table_path",
    "has_move_tables",
    "build_move_tables",
    "open_move_tables",
    "memmap_move_tables",
    "stacked_neighbor_table",
    "list_tables",
    "clear_tables",
]

_META_SUFFIX = ".meta.json"
_FILE_PREFIX = "moves__"

#: Builds larger than this announce themselves through the ``repro.tables``
#: logger (visible on stderr from the CLI -- a degree-11 build writes
#: gigabytes and takes minutes; test-sized builds stay silent).
_LARGE_BUILD_NOTICE_BYTES = 256 * 2**20


def table_cache_dir() -> Path:
    """The move-table cache directory (not created until a build needs it).

    ``REPRO_TABLE_CACHE`` when set, else ``~/.cache/repro-star/tables``.
    Read at call time so tests and the CLI can redirect the cache without
    touching module state.
    """
    override = os.environ.get(TABLE_CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro-star" / "tables"


def table_key(generators: Tuple[Tuple[int, ...], ...], n: int) -> str:
    """Content-addressed key of one ``(generators, n)`` table set.

    The first 16 hex digits of the SHA-256 of the canonical JSON encoding --
    the same addressing scheme as :func:`repro.experiments.artifacts.artifact_key`,
    so identical inputs land in identically named files across hosts.
    """
    canonical = json.dumps(
        {"n": n, "generators": [list(g) for g in generators]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def table_path(
    generators: Tuple[Tuple[int, ...], ...],
    n: int,
    cache_dir: Optional[Path] = None,
) -> Path:
    """Path of the ``.npy`` file holding one table set (existing or not)."""
    base = Path(cache_dir) if cache_dir is not None else table_cache_dir()
    return base / f"{_FILE_PREFIX}n{n:02d}__{table_key(generators, n)}.npy"


def has_move_tables(
    generators: Tuple[Tuple[int, ...], ...],
    n: int,
    cache_dir: Optional[Path] = None,
) -> bool:
    """True when the table set is already built in the cache."""
    return table_path(generators, n, cache_dir).exists()


def _check_buildable(generators, n) -> Tuple[Tuple[int, ...], ...]:
    from repro.permutations.ranking import _check_generators, require_table_degree

    require_table_degree(n)
    generators = tuple(tuple(g) for g in generators)
    _check_generators(generators, n)
    return generators


def build_move_tables(
    generators,
    n: int,
    *,
    cache_dir: Optional[Path] = None,
    chunk_nodes: Optional[int] = None,
    force: bool = False,
) -> Path:
    """Build (or reuse) the on-disk table set; returns the ``.npy`` path.

    The build streams: ``chunk_nodes`` ranks are unranked per block
    (:func:`~repro.permutations.ranking.permutations_slice`) and ranked back
    through each generator's position gather, so peak RSS is bounded by the
    block size, never by ``n!``.  Writing goes to a ``*.tmp-<pid>`` sibling
    renamed into place on success (``force=True`` rebuilds over an existing
    file the same way).  Concurrent builders of the same key each produce an
    identical file and the last rename wins -- the content address makes the
    race harmless.
    """
    from repro.permutations.ranking import (
        factorials,
        permutations_slice,
        ranks_of,
    )

    generators = _check_buildable(generators, n)
    path = table_path(generators, n, cache_dir)
    if path.exists() and not force:
        telemetry.add_counter(
            "tables.cache_hit", n=n, bytes=path.stat().st_size, file=path.name
        )
        return path
    path.parent.mkdir(parents=True, exist_ok=True)

    total = factorials(n)[n]
    width = len(generators)
    nbytes = total * width * 8
    if nbytes >= _LARGE_BUILD_NOTICE_BYTES:
        # Through the telemetry logging shim (NullHandler by default): the
        # CLI's stderr handler renders this as the historical
        # "[repro.tables] building ..." line, libraries stay silent.
        telemetry.get_logger("tables").info(
            "building %s: %d x %d int64 (%.1f GiB) under %s",
            path.name,
            total,
            width,
            nbytes / 2**30,
            path.parent,
        )

    chunk = resolve_chunk_nodes(chunk_nodes)
    columns = [list(g) for g in generators]
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with telemetry.span(
        "tables.build",
        n=n,
        num_generators=width,
        bytes=nbytes,
        chunks=-(-total // chunk),
        file=path.name,
    ):
        try:
            out = _np.lib.format.open_memmap(
                tmp, mode="w+", dtype=_np.int64, shape=(total, width)
            )
            for start in range(0, total, chunk):
                stop = min(start + chunk, total)
                block = permutations_slice(start, stop, n)
                for g, column in enumerate(columns):
                    out[start:stop, g] = ranks_of(block[:, column])
            out.flush()
            del out
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - crash-path hygiene
                tmp.unlink()

    meta = {
        "schema": 1,
        "n": n,
        "key": table_key(generators, n),
        "num_generators": width,
        "generators": [list(g) for g in generators],
        "dtype": "int64",
        "shape": [total, width],
        "nbytes": nbytes,
    }
    meta_tmp = path.with_name(f"{path.name}{_META_SUFFIX}.tmp-{os.getpid()}")
    meta_tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    os.replace(meta_tmp, path.with_name(path.name + _META_SUFFIX))
    return path


def open_move_tables(
    generators,
    n: int,
    *,
    cache_dir: Optional[Path] = None,
):
    """The ``(n!, num_generators)`` node-major memmap, building on first use.

    Opened read-only: the returned array is immutable like every other dense
    table the fast core hands out.
    """
    generators = _check_buildable(generators, n)
    path = build_move_tables(generators, n, cache_dir=cache_dir)
    telemetry.add_counter(
        "tables.open", n=n, bytes=path.stat().st_size, file=path.name
    )
    return _np.lib.format.open_memmap(path, mode="r")


def memmap_move_tables(
    generators,
    n: int,
    *,
    cache_dir: Optional[Path] = None,
) -> Tuple:
    """Per-generator move tables as column views of one shared memmap.

    The drop-in out-of-core tier of
    :func:`repro.permutations.ranking.move_tables_for`: entry ``g`` is the
    ``mm[:, g]`` column of the cached file, so every consumer of the tuple API
    (machines, index services, Cayley graphs) streams from disk unchanged,
    and :func:`stacked_neighbor_table` can recover the shared base as the
    adjacency table without copying.
    """
    mm = open_move_tables(generators, n, cache_dir=cache_dir)
    return tuple(mm[:, g] for g in range(mm.shape[1]))


def stacked_neighbor_table(tables):
    """The ``(num_nodes, num_generators)`` adjacency table of a table tuple.

    When the tables are column views of one shared two-dimensional base (the
    memmap tier), the base itself is returned -- *no copy*, which is the whole
    point at degree 11 where a ``column_stack`` would materialise ~3.2 GB.
    In-RAM table tuples are stacked exactly as before (read-only ``int64``).
    """
    tables = tuple(tables)
    if not tables:
        return _np.zeros((0, 0), dtype=_np.int64)
    base = tables[0].base if isinstance(tables[0], _np.ndarray) else None
    if (
        isinstance(base, _np.ndarray)
        and base.ndim == 2
        and base.shape == (tables[0].shape[0], len(tables))
        and base.dtype == _np.int64
        and all(
            isinstance(t, _np.ndarray)
            and t.base is base
            and t.strides == base[:, g].strides
            and t.__array_interface__["data"][0]
            == base[:, g].__array_interface__["data"][0]
            for g, t in enumerate(tables)
        )
    ):
        return base
    table = _np.column_stack(tables).astype(_np.int64, copy=False)
    table.setflags(write=False)
    return table


def list_tables(cache_dir: Optional[Path] = None) -> List[Dict[str, object]]:
    """All cached table sets, sorted by file name.

    Each entry carries the file path, size in bytes and -- when the sidecar is
    readable -- the degree, key and generator count recorded at build time.
    Entries without a sidecar (or with a damaged one) still list, flagged with
    ``"meta": None``: listing a cache must never fail harder than the cache.
    """
    base = Path(cache_dir) if cache_dir is not None else table_cache_dir()
    if not base.is_dir():
        return []
    entries: List[Dict[str, object]] = []
    for path in sorted(base.glob(f"{_FILE_PREFIX}*.npy")):
        entry: Dict[str, object] = {
            "file": path.name,
            "path": str(path),
            "bytes": path.stat().st_size,
            "meta": None,
        }
        sidecar = path.with_name(path.name + _META_SUFFIX)
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            meta = None
        if isinstance(meta, dict):
            entry["meta"] = meta
            entry["n"] = meta.get("n")
            entry["key"] = meta.get("key")
            entry["num_generators"] = meta.get("num_generators")
        entries.append(entry)
    return entries


def clear_tables(
    cache_dir: Optional[Path] = None, *, degree: Optional[int] = None
) -> int:
    """Delete cached table sets; returns how many ``.npy`` files were removed.

    ``degree`` restricts the sweep to one degree's files.  Sidecars and stale
    ``*.tmp-*`` leftovers of the matching tables are swept along.
    """
    base = Path(cache_dir) if cache_dir is not None else table_cache_dir()
    if not base.is_dir():
        return 0
    pattern = (
        f"{_FILE_PREFIX}n{degree:02d}__*" if degree is not None else f"{_FILE_PREFIX}*"
    )
    removed = 0
    for path in sorted(base.glob(pattern)):
        if path.name.endswith(".npy"):
            removed += 1
        path.unlink()
    return removed
