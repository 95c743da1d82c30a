"""Ranking and unranking permutations via the Lehmer code.

The SIMD simulator gives every star-graph node a dense integer id in
``0..n!-1`` so that register files can be plain lists.  The bijection between
permutations and such ids is the classic *Lehmer code* (factorial number
system): digit ``i`` of the code counts how many symbols to the right of tuple
position ``i`` are smaller than the symbol at position ``i``.

This module is the substrate of the rank-indexed fast core:

* :func:`factorials` -- module-level cached factorial tables, so no hot path
  ever calls :func:`math.factorial` per element;
* :func:`lehmer_code` / :func:`lehmer_decode` -- encode switches to a Fenwick
  (binary indexed) tree above a small degree, giving the O(n log n)-style
  bound instead of the naive double loop;
* :func:`inversion_count` -- Lehmer-based inversion counting shared with
  :meth:`repro.permutations.permutation.Permutation.num_inversions`;
* :func:`all_permutations_array` / :func:`ranks_of` -- NumPy-vectorised
  enumeration and ranking of whole permutation populations;
* :func:`move_tables_for` -- per-``(generator set, degree)`` dense tables
  mapping ``rank -> rank of the neighbour along generator g``, for *any* set
  of involution position permutations over ``S_n`` (the substrate of the
  generic Cayley-network subsystem in :mod:`repro.topology.cayley`);
* :func:`move_tables` -- the star graph's ``(n-1) x n!`` tables (generators
  ``g_j`` exchange tuple positions 0 and ``j``), the cached special case of
  :func:`move_tables_for` shared by every
  :class:`~repro.topology.star.StarGraph` and SIMD machine of that degree;
* :func:`unrank_batch` / :func:`rank_batch` / :func:`permutations_slice` --
  vectorised unranking and ranking of whole rank/permutation arrays, the
  substrate of the chunked whole-graph kernels;
* :func:`implicit_neighbor_block` -- neighbour ranks computed on the fly as
  ``unrank -> apply generator -> rank`` with **no table at all**, the
  substrate of the implicit adjacency source (:mod:`repro.topology.routing`);
* :func:`pack_permutations` / :func:`unpack_permutations` and
  :func:`ranks_to_keys` / :func:`keys_to_ranks` -- the packed-key space the
  bounded-ball kernel grows in: a permutation of degree ``n <= 16``
  (:data:`MAX_PACKED_DEGREE`) packs 4 bits per symbol into one ``uint64``
  whose order is lexicographic, i.e. rank order; :func:`translate_packed_keys`
  left-multiplies packed keys by a permutation with one table per key byte.

Tables are bounded by one guard
(:func:`within_table_degree`/:func:`require_table_degree`): in-RAM tables
through :data:`MAX_TABLE_DEGREE`.  The table-free batch helpers reach
further, to the int64 rank ceiling (:func:`require_int64_rank_degree`,
``n <= 20``): ``21!`` overflows int64.  Every streamed loop walks its
blocks :data:`CHUNK_NODES` rows at a time, and the batch rank kernels walk
theirs in position-major tiles of ``CHUNK_NODES >> 7`` rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _itertools_permutations
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import (
    InvalidParameterError,
    InvalidPermutationError,
    TableDegreeError,
)
from repro.permutations.permutation import is_permutation

import numpy as _np

__all__ = [
    "factorials",
    "lehmer_code",
    "lehmer_decode",
    "inversion_count",
    "permutation_rank",
    "permutation_unrank",
    "all_permutations",
    "all_permutations_array",
    "ranks_of",
    "rank_batch",
    "unrank_batch",
    "implicit_neighbor_block",
    "permutations_slice",
    "pack_permutations",
    "unpack_permutations",
    "ranks_to_keys",
    "keys_to_ranks",
    "translate_packed_keys",
    "MAX_PACKED_DEGREE",
    "within_packed_degree",
    "move_tables",
    "move_tables_for",
    "star_position_generators",
    "MAX_TABLE_DEGREE",
    "CHUNK_NODES",
    "MAX_INT64_RANK_DEGREE",
    "within_table_degree",
    "require_table_degree",
    "within_int64_rank_degree",
    "require_int64_rank_degree",
]

# Beyond this degree the n! tables stop fitting comfortably in RAM (n = 11
# would need 8 * 10 * 11! bytes ~ 3.2 GB across the generators, plus
# comparable working sets in the vectorised sweeps); larger graphs use the
# table-free implicit adjacency instead.
MAX_TABLE_DEGREE = 10

# Rows per block of every streamed loop (~8 MB of int64 indices per gathered
# column).  Chunking is exact, so the value changes memory and speed, never
# results; kernels read it at call time.
CHUNK_NODES = 1 << 20

# int64 rank accumulation overflows at 21! - 1 > 2**63 - 1; beyond this the
# vectorised path must defer to exact Python integers.
MAX_INT64_RANK_DEGREE = 20

# A packed key spends 4 bits per symbol, so 16 symbols fill one uint64.  A
# representation limit like MAX_INT64_RANK_DEGREE, not a tuning knob.
MAX_PACKED_DEGREE = 16

# Degree below which the naive O(n^2) Lehmer loop beats the Fenwick tree's
# constant factor in CPython.
_FENWICK_THRESHOLD = 16


@lru_cache(maxsize=None)
def factorials(n: int) -> Tuple[int, ...]:
    """The cached table ``(0!, 1!, ..., n!)``.

    >>> factorials(4)
    (1, 1, 2, 6, 24)
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    table = [1]
    for k in range(1, n + 1):
        table.append(table[-1] * k)
    return tuple(table)


def _lehmer_digits_naive(perm: Sequence[int]) -> List[int]:
    n = len(perm)
    return [
        sum(1 for j in range(i + 1, n) if perm[j] < perm[i]) for i in range(n)
    ]


def _lehmer_digits_fenwick(perm: Sequence[int]) -> List[int]:
    """Lehmer digits in O(n log n) via a Fenwick tree over symbol values.

    Scanning right to left, the tree counts how many already-seen symbols
    (i.e. symbols to the right) are smaller than the current one.
    """
    n = len(perm)
    tree = [0] * (n + 1)
    code = [0] * n
    for i in range(n - 1, -1, -1):
        symbol = perm[i]
        # prefix sum over symbols < perm[i]
        count = 0
        k = symbol  # 1-based prefix up to symbol-1 is index `symbol`
        while k > 0:
            count += tree[k]
            k -= k & -k
        code[i] = count
        k = symbol + 1
        while k <= n:
            tree[k] += 1
            k += k & -k
    return code


def _lehmer_digits(perm: Sequence[int]) -> List[int]:
    if len(perm) < _FENWICK_THRESHOLD:
        return _lehmer_digits_naive(perm)
    return _lehmer_digits_fenwick(perm)


def lehmer_code(perm: Sequence[int]) -> Tuple[int, ...]:
    """The Lehmer code of a permutation.

    Entry ``i`` of the code is the number of positions ``j > i`` whose symbol
    is smaller than the symbol at position ``i``.  The last entry is always 0.

    >>> lehmer_code((2, 0, 1))
    (2, 0, 0)
    """
    perm = tuple(perm)
    if not is_permutation(perm):
        raise InvalidPermutationError(f"{perm!r} is not a permutation")
    return tuple(_lehmer_digits(perm))


def lehmer_decode(code: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`lehmer_code`.

    >>> lehmer_decode((2, 0, 0))
    (2, 0, 1)
    """
    code = tuple(code)
    n = len(code)
    available = list(range(n))
    perm: List[int] = []
    for i, c in enumerate(code):
        if not (0 <= c < n - i):
            raise InvalidParameterError(
                f"Lehmer digit {c} at index {i} out of range for degree {n}"
            )
        perm.append(available.pop(c))
    return tuple(perm)


def inversion_count(perm: Sequence[int]) -> int:
    """Number of inversions of *perm* (the sum of its Lehmer digits).

    >>> inversion_count((2, 0, 1))
    2
    """
    perm = tuple(perm)
    if not is_permutation(perm):
        raise InvalidPermutationError(f"{perm!r} is not a permutation")
    return sum(_lehmer_digits(perm))


def _rank_unchecked(perm: Sequence[int]) -> int:
    """Lexicographic rank of a known-valid permutation (no validation)."""
    digits = _lehmer_digits(perm)
    n = len(digits)
    fact = factorials(n)
    rank = 0
    for i, c in enumerate(digits):
        rank += c * fact[n - 1 - i]
    return rank


def permutation_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of *perm* among all permutations of its degree.

    The identity has rank 0 and ``(n-1, n-2, ..., 0)`` has rank ``n! - 1``.

    >>> permutation_rank((0, 1, 2))
    0
    >>> permutation_rank((2, 1, 0))
    5
    """
    perm = tuple(perm)
    if not is_permutation(perm):
        raise InvalidPermutationError(f"{perm!r} is not a permutation")
    return _rank_unchecked(perm)


def permutation_unrank(rank: int, n: int) -> Tuple[int, ...]:
    """Inverse of :func:`permutation_rank` for degree *n*.

    >>> permutation_unrank(0, 3)
    (0, 1, 2)
    >>> permutation_unrank(5, 3)
    (2, 1, 0)
    """
    # A plain int (never a bool) skips the array-based rule: one call per ball.
    if type(rank) is not int:
        if _np.ndim(rank) or not _integral(rank):
            raise InvalidParameterError("rank must be an int")
        rank = int(rank)
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    fact = factorials(n)
    total = fact[n]
    if not (0 <= rank < total):
        raise InvalidParameterError(f"rank must be in [0, {total}), got {rank}")
    code: List[int] = []
    for i in range(n):
        digit, rank = divmod(rank, fact[n - 1 - i])
        code.append(digit)
    return lehmer_decode(code)


def all_permutations(n: int) -> Iterator[Tuple[int, ...]]:
    """Iterate over all permutations of ``0..n-1`` in lexicographic order.

    The order agrees with :func:`permutation_rank`: the ``k``-th yielded tuple
    has rank ``k``.
    """
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    return iter(_itertools_permutations(range(n)))


# --------------------------------------------------------------- dense tables
def within_table_degree(n: int) -> bool:
    """True when per-degree tables exist for degree *n* (``n <= 10``).

    Consumers with a tuple-based fallback (the SIMD machines' generic route
    path, the batched embedding kernels) gate the fast path on this predicate;
    consumers that *require* the tables call :func:`require_table_degree`.
    """
    return n <= MAX_TABLE_DEGREE


def require_table_degree(n: int) -> None:
    """Raise the one canonical error when degree *n* exceeds the table bound.

    Every table entry point (:func:`all_permutations_array`,
    :func:`move_tables`, :func:`move_tables_for`) raises this same
    :class:`~repro.exceptions.TableDegreeError`, so callers can catch the
    overflow uniformly regardless of which table was requested first.  The
    message names the :data:`MAX_TABLE_DEGREE` bound and the table-free
    remedies.
    """
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    if n > MAX_TABLE_DEGREE:
        raise TableDegreeError(
            f"per-degree move tables are limited to n <= {MAX_TABLE_DEGREE}, "
            f"got {n}; beyond "
            f"the table ceiling Topology.neighbor_source serves the "
            f"table-free implicit adjacency source automatically; see also "
            f"the sampled estimators in "
            f"repro.simulation.sampling (SAMPLED-DISTANCE / "
            f"SAMPLED-PROPERTIES experiments), or the bounded-ball sampled "
            f"campaigns in repro.simulation.sampled_campaign (SAMPLED-FAULT "
            f"/ SAMPLED-STRETCH experiments)"
        )


def within_int64_rank_degree(n: int) -> bool:
    """True when degree-*n* ranks fit in int64 (``n! - 1 < 2**63``).

    The bound of the *table-free* vectorised batch helpers
    (:func:`rank_batch`, :func:`unrank_batch`, :func:`permutations_slice`,
    :func:`implicit_neighbor_block`): they never materialise per-degree
    tables, so the factorial overflow of the int64 rank arithmetic --
    ``21! > 2**63 - 1`` -- is the only ceiling that applies.
    """
    return n <= MAX_INT64_RANK_DEGREE


def require_int64_rank_degree(n: int) -> None:
    """Raise the canonical error when int64 rank arithmetic would overflow.

    The same :class:`~repro.exceptions.TableDegreeError` as
    :func:`require_table_degree` (callers catch factorial-overflow bounds
    uniformly); the message names the ceiling and the exact-Python remedy.
    """
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    if n > MAX_INT64_RANK_DEGREE:
        raise TableDegreeError(
            f"vectorised rank arithmetic accumulates int64 ranks, limited to "
            f"n <= {MAX_INT64_RANK_DEGREE} ({MAX_INT64_RANK_DEGREE + 1}! "
            f"overflows int64), got {n}; use the exact-Python scalar helpers "
            f"(permutation_rank / permutation_unrank / ranks_of) beyond it"
        )


@lru_cache(maxsize=None)
def all_permutations_array(n: int):
    """All permutations of ``0..n-1`` as an ``(n!, n)`` array in rank order.

    Row ``r`` is the permutation of rank ``r``.  The returned array is
    read-only.
    Bounded by :data:`MAX_TABLE_DEGREE` -- the whole ``(n!, n)`` array lives
    in RAM; chunked consumers use :func:`permutations_slice` instead, which
    reaches the int64 rank ceiling.
    """
    require_table_degree(n)
    if n == 1:
        out = _np.zeros((1, 1), dtype=_np.int8)
    else:
        sub = all_permutations_array(n - 1)
        m = sub.shape[0]
        out = _np.empty((n * m, n), dtype=_np.int8)
        for first in range(n):
            block = out[first * m : (first + 1) * m]
            block[:, 0] = first
            tail = sub.copy()
            tail[tail >= first] += 1
            block[:, 1:] = tail
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _lehmer_places(n: int):
    """Read-only ``(n, 1)`` columns ``(place, base)`` of degree *n*.

    Row ``i`` holds the place value ``(n-1-i)!`` of Lehmer digit ``i``
    (``int64``) and its base ``n - i`` (``uint8``), shaped to broadcast
    against position-major ``(n, tile)`` blocks.
    """
    fact = factorials(n)
    place = _np.array([[fact[n - 1 - i]] for i in range(n)], dtype=_np.int64)
    base = _np.arange(n, 0, -1, dtype=_np.uint8)[:, None]
    place.setflags(write=False)
    base.setflags(write=False)
    return place, base


@lru_cache(maxsize=None)
def _rank_constants(n: int):
    """``(one, halves)``: the constants of :func:`_rank_rows_numpy` at degree *n*.

    ``one`` is 1 in the narrowest unsigned type holding ``n`` bits, the type
    of the symbol masks.  ``halves`` holds the place values ``(n-1-i)!`` of
    digits ``0 .. n-2`` as a ``(2, n-1)`` ``float64`` pair: row 0 their high
    and row 1 their low 32 bits.  With digits below 20 both dot products
    stay below ``2**53`` and are exact, so a rank is ``(high << 32) + low``
    from one BLAS product (an integer dot has no BLAS path).
    """
    place = _lehmer_places(n)[0][:-1, 0]
    halves = _np.stack([place >> 32, place & 0xFFFFFFFF]).astype(_np.float64)
    halves.setflags(write=False)
    return _np.min_scalar_type((1 << n) - 1).type(1), halves


def _tile_rows() -> int:
    """Rows per position-major block of the rank kernels, read at call time.

    Derived from :data:`CHUNK_NODES` (8 192 rows at the default), so a
    block's ``(n, tile)`` temporaries stay cache-sized and a one-row chunk
    runs one-row tiles.
    """
    return max(1, CHUNK_NODES >> 7)


def _rank_rows_numpy(array):
    """The vectorised Lehmer encode of a validated-shape ``(m, n)`` array.

    Rows go through in position-major ``(n, tile)`` blocks with a number of
    whole-block operations that grows with ``log2 n`` only: ``bits = 1 <<
    symbol`` in the narrowest unsigned type holding ``n`` bits, the symbols
    at the later positions as a suffix OR built by doubling (``later[i] |=
    later[i + s]`` for ``s = 1, 2, 4, ...``), the Lehmer digits -- how many
    later symbols are smaller -- as ``np.bitwise_count(later & (bits -
    1))``, and the ranks as the digits' dot product with the factorial place
    values (:func:`_rank_constants`).  Returns the ``(m,)`` ``int64`` ranks.
    """
    m, n = array.shape
    one, halves = _rank_constants(n)
    ranks = _np.empty(m, dtype=_np.int64)
    tile = _tile_rows()
    for start in range(0, m, tile):
        bits = array[start : start + tile].T.astype(one.dtype, order="C")
        _np.left_shift(one, bits, out=bits)
        later = bits[1:].copy()
        shift = 1
        while shift < n - 1:
            later[:-shift] |= later[shift:]
            shift <<= 1
        bits -= one
        later &= bits[:-1]
        high, low = (halves @ _np.bitwise_count(later)).astype(_np.int64)
        block = ranks[start : start + tile]
        _np.left_shift(high, 32, out=block)
        block += low
    return ranks


def ranks_of(rows) -> "list":
    """Vectorised lexicographic ranks of an ``(m, n)`` batch of permutations.

    Accepts a NumPy array or a sequence of permutation tuples; every row must
    be a valid permutation (not re-validated -- this is a fast-core helper).
    Returns a NumPy ``int64`` array.  Beyond the int64 ceiling (``n > 20``)
    it silently defers to exact Python integers and returns a list;
    :func:`rank_batch` is the strict array-in/array-out counterpart that
    raises instead.
    """
    array = _np.asarray(rows)
    if array.ndim != 2:
        raise InvalidParameterError("ranks_of expects a 2-D batch of permutations")
    if array.shape[1] > MAX_INT64_RANK_DEGREE:
        # n! no longer fits in int64; compute exactly in Python instead.
        return [_rank_unchecked(tuple(map(int, row))) for row in array]
    return rank_batch(array)


def rank_batch(perms):
    """Vectorised :func:`permutation_rank` over a whole permutation batch.

    The strict counterpart of :func:`unrank_batch`: *perms* is an ``(m, n)``
    batch of valid permutation rows (NumPy array or any nested sequence,
    normalised with one ``np.asarray`` pass; rows are not re-validated --
    fast-core helper) and the result is the ``(m,)`` ``int64`` rank array
    with ``rank_batch(unrank_batch(r, n)) == r``.  Degrees beyond the int64
    rank ceiling raise the canonical
    :class:`~repro.exceptions.TableDegreeError`
    (:func:`require_int64_rank_degree`) instead of silently changing
    representation.
    """
    array = _np.asarray(perms)
    if array.ndim != 2:
        raise InvalidParameterError("rank_batch expects a 2-D batch of permutations")
    require_int64_rank_degree(array.shape[1])
    return _rank_rows_numpy(array)


def unrank_batch(ranks, n: int):
    """Vectorised :func:`permutation_unrank` over a whole rank array.

    Returns the ``(m, n)`` ``int8`` array whose row ``k`` is the permutation
    of rank ``ranks[k]`` -- i.e. the corresponding rows of
    :func:`all_permutations_array` *without materialising it*, which is what
    lets the chunked kernels gather endpoint permutations at degrees beyond
    the table degree.  The inverse of :func:`ranks_of` on valid inputs.

    Ranks go through in position-major ``(n, tile)`` blocks (tiles of
    ``CHUNK_NODES >> 7`` rows), so a block of a million degree-12 ranks
    costs its ``(m, n)`` ``int8`` output plus cache-sized temporaries, never
    ``n!``.  Per tile, one floor division by the cached factorial column
    gives every factorial-base digit at once (digit ``i`` is ``q[i] - (n-i)
    * q[i-1]`` with ``q[i] = rank // (n-1-i)!``); the digits are then
    bump-decoded right to left in place: the last digit is the last symbol,
    and prepending digit ``head`` to the decoded suffix shifts every suffix
    symbol ``>= head`` up by one (``tail += tail >= head``).  Any iterable
    of integer ranks (list, generator, array) is normalised with one
    ``np.asarray`` pass up front, so there is exactly one vectorised path;
    non-integer ranks raise :class:`~repro.exceptions.InvalidParameterError`
    instead of truncating, and degrees whose factorial overflows int64
    (``n > 20``) raise the canonical
    :class:`~repro.exceptions.TableDegreeError`
    (:func:`require_int64_rank_degree`).
    """
    require_int64_rank_degree(n)
    ranks = _check_rank_array(ranks, n, "unrank_batch")
    return _unrank_rows(ranks, n)


def _check_rank_array(ranks, n: int, caller: str):
    """*ranks* as a 1-D ``int64`` array, every entry an integer in ``[0, n!)``.

    Entries that are not integers -- floats, bools, complex numbers, or
    objects other than ints -- raise instead of truncating, as
    :func:`permutation_unrank` does; an empty input (``[]`` is ``float64``
    to NumPy) is the empty rank array.
    """
    if not isinstance(ranks, _np.ndarray) and not hasattr(ranks, "__len__"):
        ranks = list(ranks)  # materialise one-shot iterables for asarray
    array = _np.asarray(ranks)
    if array.ndim != 1:
        raise InvalidParameterError(f"{caller} expects a 1-D rank array")
    if not array.size:
        return array.astype(_np.int64)
    if not _integral(ranks):
        kind = "bool" if array.dtype.kind in "iu" else str(array.dtype)
        raise InvalidParameterError(f"{caller} expects integer ranks, got {kind} entries")
    total = factorials(n)[n]
    if not (int(array.min()) >= 0 and int(array.max()) < total):
        raise InvalidParameterError(f"ranks must be in [0, {total})")
    return array.astype(_np.int64, copy=False)


def _integral(values) -> bool:
    """True when *values* -- a scalar, a sequence or an array -- holds integers only.

    Python and NumPy integers pass; bools, floats (even whole ones),
    complex numbers and every other object do not.  The one integrality
    rule of the rank and node-index checks.  Pass the caller's input, not
    an array made from it: NumPy turns ``[True, 5]`` into ``int64``, so the
    elements of anything but an ndarray are checked for bools first.
    """
    if not isinstance(values, _np.ndarray) and any(
        isinstance(value, (bool, _np.bool_))
        for value in _np.asarray(values, dtype=object).flat
    ):
        return False
    array = _np.asarray(values)
    return array.dtype.kind in "iu" or (
        array.dtype.kind == "O"
        and all(
            isinstance(value, (int, _np.integer)) and not isinstance(value, bool)
            for value in array.flat
        )
    )


def _unrank_rows(ranks, n: int):
    """The body of :func:`unrank_batch` for an already validated rank array."""
    place, base = _lehmer_places(n)
    out = _np.empty((ranks.shape[0], n), dtype=_np.int8)
    tile = _tile_rows()
    for start in range(0, ranks.shape[0], tile):
        # q[i] = rank // (n-1-i)!, so digit i = q[i] - (n-i) * q[i-1]; the
        # digits are below 20, so working modulo 256 in uint8 is exact.
        digits = (ranks[start : start + tile] // place).astype(_np.uint8)
        digits[1:] -= digits[:-1] * base[1:]
        for i in range(n - 2, -1, -1):
            tail = digits[i + 1 :]
            tail += (tail >= digits[i]).view(_np.uint8)
        out[start : start + tile] = digits.T
    return out


def implicit_neighbor_block(ranks, generators: Tuple[Tuple[int, ...], ...], n: int):
    """Neighbour ranks of a rank block, computed with **no move table**.

    Entry ``(r, g)`` of the returned ``(m, len(generators))`` ``int64``
    array is the rank of ``tuple(pi[generators[g][p]] for p in range(n))``
    where ``pi`` is the permutation of rank ``ranks[r]`` -- i.e. exactly the
    rows ``move_tables_for(generators, n)[g][ranks]`` would hold, but
    evaluated on the fly as ``unrank -> apply generator -> rank``
    (:func:`unrank_batch` / :func:`rank_batch`).  This is the substrate of
    the implicit adjacency source: the whole-graph kernels stay exact past
    the table ceiling, bounded only by the int64 rank degree (``n <= 20``).

    The block is processed in :data:`CHUNK_NODES` sub-chunks so the
    transient ``O(chunk * k * n)`` state stays bounded; chunk size never
    changes the results.  Each sub-chunk is
    one unrank, one gather of all ``k`` generator images
    (``perms[:, generators]``) and one fused Lehmer encode of the
    ``chunk * k`` moved rows.  *generators* are validated exactly
    like the table builders' (:func:`move_tables_for`), so implicit blocks
    and tables can never disagree about a legal generator set.
    """
    require_int64_rank_degree(n)
    generators = tuple(tuple(generator) for generator in generators)
    _check_generators(generators, n)
    ranks = _check_rank_array(ranks, n, "implicit_neighbor_block")
    columns = _np.asarray(generators, dtype=_np.intp).reshape(len(generators), n)
    return _neighbor_rank_rows(ranks, columns)


def _neighbor_rank_rows(ranks, columns):
    """The body of :func:`implicit_neighbor_block` for validated inputs.

    *ranks* is a 1-D ``int64`` array already known to lie in ``[0, n!)``
    and *columns* the ``(k, n)`` array of a checked generator set, so
    ``perms[:, columns]`` gathers every generator image at once.
    """
    k, n = columns.shape
    m = ranks.shape[0]
    out = _np.empty((m, k), dtype=_np.int64)
    for start in range(0, m, CHUNK_NODES):
        stop = min(start + CHUNK_NODES, m)
        perms = _unrank_rows(ranks[start:stop], n)
        out[start:stop] = _rank_rows_numpy(
            perms[:, columns].reshape(-1, n)
        ).reshape(stop - start, k)
    return out


def permutations_slice(start: int, stop: int, n: int):
    """Rows ``start .. stop-1`` of :func:`all_permutations_array`, streamed.

    The contiguous special case of :func:`unrank_batch`, used by the chunked
    whole-graph sweeps to walk all ``n!`` permutations one block at a time.
    Table-free, so it is *not* bounded by the table degree: any degree whose
    ranks fit in int64 works (``n <= 20``, :func:`require_int64_rank_degree`
    -- ``21!`` overflows int64 and raises the canonical
    :class:`~repro.exceptions.TableDegreeError`).
    """
    require_int64_rank_degree(n)
    if not (_integral(start) and _integral(stop)) or _np.ndim(start) or _np.ndim(stop):
        raise InvalidParameterError(
            f"slice bounds must be integers, got {start!r} and {stop!r}"
        )
    total = factorials(n)[n]
    if not (0 <= start <= stop <= total):
        raise InvalidParameterError(
            f"slice [{start}, {stop}) out of range for degree {n} (n! = {total})"
        )
    return unrank_batch(_np.arange(start, stop, dtype=_np.int64), n)


# ------------------------------------------------------------ packed keys
# Byte b of a key holds positions 2b (high nibble) and 2b + 1 (low nibble),
# bytes big-endian, so position 0 is the most significant nibble of the
# uint64 and key order is lexicographic order -- which is rank order.
# Unpacked symbols are position-major ``(16, m)`` so that gathering
# generator images copies whole rows.
_KEY_BYTES = _np.dtype(">u8")


def within_packed_degree(n: int) -> bool:
    """True when a degree-*n* permutation packs into one ``uint64`` key."""
    return n <= MAX_PACKED_DEGREE


def _keys_from_bytes(packed):
    """``(..., 8)`` big-endian key bytes -> ``(...)`` ``uint64`` keys."""
    packed = _np.ascontiguousarray(packed)
    return packed.view(_KEY_BYTES)[..., 0].astype(_np.uint64)


def _unpack_nibbles(keys):
    """``(m,)`` ``uint64`` keys -> ``(16, m)`` ``uint8`` symbols, by position."""
    packed = _np.asarray(keys, dtype=_np.uint64).astype(_KEY_BYTES)
    packed = packed.view(_np.uint8).reshape(-1, 8).T
    nibbles = _np.empty((16, packed.shape[1]), dtype=_np.uint8)
    _np.right_shift(packed, 4, out=nibbles[0::2])
    _np.bitwise_and(packed, 15, out=nibbles[1::2])
    return nibbles


def _require_packed_degree(n: int) -> None:
    if n > MAX_PACKED_DEGREE:
        raise TableDegreeError(
            f"packed permutation keys hold n <= {MAX_PACKED_DEGREE} symbols "
            f"(4 bits each in a uint64), got {n}; use ranks beyond it"
        )


def pack_permutations(perms):
    """Pack an ``(m, n)`` permutation batch into ``(m,)`` ``uint64`` keys.

    Symbol ``p`` goes to the 4-bit nibble ``15 - p`` (position 0 is the most
    significant), unused low nibbles stay zero, so comparing keys compares
    the rows lexicographically: for one degree, key order **is** rank
    order.  Rows are not validated (fast-core helper); degrees past
    :data:`MAX_PACKED_DEGREE` raise
    :class:`~repro.exceptions.TableDegreeError`.
    """
    array = _np.asarray(perms)
    if array.ndim != 2:
        raise InvalidParameterError(
            "pack_permutations expects a 2-D batch of permutations"
        )
    m, n = array.shape
    _require_packed_degree(n)
    nibbles = _np.zeros((16, m), dtype=_np.uint8)
    nibbles[:n] = array.T
    return _keys_from_bytes(((nibbles[0::2] << 4) | nibbles[1::2]).T)


def unpack_permutations(keys, n: int):
    """Inverse of :func:`pack_permutations`: the ``(m, n)`` ``int8`` rows."""
    _require_packed_degree(n)
    return _np.ascontiguousarray(_unpack_nibbles(keys)[:n].T).view(_np.int8)


def ranks_to_keys(ranks, n: int):
    """The keys the bounded-ball kernel grows in, for degree-*n* ranks.

    ``uint64`` packed permutations (:func:`pack_permutations` of
    :func:`unrank_batch`) through :data:`MAX_PACKED_DEGREE`; past it the
    keys **are** the ``int64`` ranks.  Either way key order is rank order,
    so sorted ranks map to sorted keys.
    """
    if within_packed_degree(n):
        return pack_permutations(unrank_batch(ranks, n))
    require_int64_rank_degree(n)
    return _check_rank_array(ranks, n, "ranks_to_keys")


def _neighbor_key_rows(keys, columns):
    """``(m, k)`` neighbour keys of ``(m,)`` packed *keys*, with no rank.

    *columns* is the ``(k, 16)`` array of the generators padded with fixed
    positions ``n .. 15``.  One unpack, one row gather per nibble half, one
    pack: the key-space twin of :func:`_neighbor_rank_rows`.
    """
    nibbles = _unpack_nibbles(keys)
    packed = (nibbles << 4)[columns[:, 0::2]]
    packed |= nibbles[columns[:, 1::2]]  # (k, 8, m): byte b of every image
    return _keys_from_bytes(packed.transpose(2, 0, 1))


def keys_to_ranks(keys, n: int):
    """Inverse of :func:`ranks_to_keys`: the ``int64`` ranks of *keys*."""
    if within_packed_degree(n):
        return rank_batch(_unpack_nibbles(keys)[:n].T)
    return _np.asarray(keys, dtype=_np.int64)


def _key_byte_columns(keys, n: int):
    """The ``ceil(n / 2)`` leading bytes of packed *keys*: one ``uint8`` view each.

    Byte ``b`` holds positions ``2b`` and ``2b + 1``; the bytes past them
    hold only the unused positions ``n .. 15``, which are zero.  The columns
    are strided views of the keys' own bytes (most significant first
    whatever the host's byte order), so splitting copies nothing.
    """
    packed = _np.ascontiguousarray(keys, dtype=_np.uint64).view(_np.uint8)
    packed = packed.reshape(-1, 8)
    if _np.little_endian:
        packed = packed[:, ::-1]
    return tuple(packed[:, b] for b in range((n + 1) // 2))


def translate_packed_keys(byte_columns, perm):
    """Packed keys of ``perm o tau`` for packed permutations ``tau`` given by bytes.

    *byte_columns* holds the ``ceil(n / 2)`` leading key bytes of every
    ``tau`` (one ``uint8`` array per byte, as ``_key_byte_columns`` splits
    them) and *perm* is a degree-``n`` permutation.  Left multiplication
    substitutes symbols, ``(perm o tau)[p] = perm[tau[p]]``, so each byte
    maps through one 256-entry ``uint64`` table with its two substituted
    nibbles already shifted into place, and the images are OR'd together.
    The unused low nibbles (positions ``n .. 15``) stay zero, free for a
    caller's tags.  In a Cayley graph grown by right multiplication this maps the identity's
    ball onto ``perm``'s, with the same distances.
    """
    perm = _np.asarray(perm)
    n = perm.shape[0]
    _require_packed_degree(n)
    symbols = _np.zeros(16, dtype=_np.uint64)
    symbols[:n] = perm
    byte = _np.arange(256)
    high = symbols[byte >> 4] << _np.uint64(4)
    both = high | symbols[byte & 15]
    out = None
    for b, column in enumerate(byte_columns):
        # A byte whose low nibble is position n or past it keeps that nibble 0.
        table = (both if 2 * b + 1 < n else high) << _np.uint64(8 * (7 - b))
        image = table.take(column)
        if out is None:
            out = image
        else:
            out |= image
    return out


@lru_cache(maxsize=None)
def star_position_generators(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The star graph's generators ``g_1 .. g_{n-1}`` as position permutations.

    ``g_j`` exchanges tuple positions 0 and ``j``; applying it to a node
    ``pi`` yields ``tuple(pi[g[p]] for p in range(n))``.

    >>> star_position_generators(3)
    ((1, 0, 2), (2, 1, 0))
    """
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    generators = []
    for j in range(1, n):
        values = list(range(n))
        values[0], values[j] = values[j], values[0]
        generators.append(tuple(values))
    return tuple(generators)


@lru_cache(maxsize=256)
def _check_generators(generators: Tuple[Tuple[int, ...], ...], n: int) -> None:
    """Generators must be distinct non-identity involution position permutations.

    Non-identity guarantees every node moves (the table is fixed-point free);
    the involution property makes each table self-inverse, i.e. a perfect
    matching -- the invariant the SIMD one-gather generator route relies on.
    Memoised per ``(generators, n)`` because every implicit neighbour block
    re-checks the same set; a rejected set raises on every call (exceptions
    are never cached).
    """
    identity = tuple(range(n))
    seen = set()
    for generator in generators:
        if len(generator) != n or not is_permutation(generator):
            raise InvalidParameterError(
                f"generator {generator!r} is not a permutation of 0..{n - 1}"
            )
        if generator == identity:
            raise InvalidParameterError("the identity is not a valid generator")
        if any(generator[generator[p]] != p for p in range(n)):
            raise InvalidParameterError(
                f"generator {generator!r} is not an involution; only involution "
                "generator sets are supported (tables must be perfect matchings)"
            )
        if generator in seen:
            raise InvalidParameterError(f"duplicate generator {generator!r}")
        seen.add(generator)


@lru_cache(maxsize=32)
def move_tables_for(generators: Tuple[Tuple[int, ...], ...], n: int) -> Tuple:
    """Dense move tables for an arbitrary involution generator set over ``S_n``.

    *generators* is a tuple of position permutations of degree *n* (each a
    non-identity involution, e.g. a transposition or a prefix reversal).
    Returns one dense array per generator: entry ``rank`` of table ``g`` is
    the rank of ``tuple(pi[generators[g][p]] for p in range(n))`` where ``pi``
    is the permutation of rank ``rank``.  Each table is a fixed-point-free
    involution of ``0..n!-1`` -- a perfect matching of the nodes, which is
    what lets a whole-register generator route run as one gather.

    Read-only NumPy ``int64`` arrays.  Cached per ``(generator set, degree)`` and shared by every
    consumer (:func:`move_tables` is the cached star-graph special case).
    The cache is LRU-bounded: one entry can reach hundreds of megabytes at
    the top degrees, so sweeps over many distinct generator sets must not
    pin every table set forever.
    """
    require_table_degree(n)
    _check_generators(generators, n)
    perms = all_permutations_array(n)
    tables = []
    for generator in generators:
        table = ranks_of(perms[:, list(generator)])
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


@lru_cache(maxsize=None)
def move_tables(n: int) -> Tuple:
    """Precomputed generator move tables for the star graph ``S_n``.

    Returns a tuple of ``n - 1`` dense arrays, one per generator ``g_j``
    (``j = 1 .. n-1``), where entry ``rank`` of table ``j - 1`` is the rank of
    the node reached from ``rank`` along ``g_j``.  Each table is a fixed-point
    -free involution of ``0..n!-1`` (generator moves are involutions), which
    is what makes every generator route a perfect matching.

    The cached special case of :func:`move_tables_for` with the star's
    position-exchange generators; tables are shared per degree by every
    consumer.  This per-degree cache is unbounded on purpose (at most
    ``MAX_TABLE_DEGREE`` entries can ever exist): the star tables are the
    substrate of every ``StarGraph``/``StarMachine`` and must keep the PR-1
    compute-once-per-degree guarantee even when sweeps over many generic
    generator sets churn the bounded :func:`move_tables_for` LRU.
    """
    require_table_degree(n)
    if n < 2:
        return ()
    return move_tables_for(star_position_generators(n), n)
