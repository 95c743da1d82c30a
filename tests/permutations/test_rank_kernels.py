"""Parity of the tiled batch rank kernels with the scalar Lehmer oracles.

``unrank_batch`` / ``rank_batch`` (and ``implicit_neighbor_block`` through
them) walk their rows in position-major tiles of ``CHUNK_NODES >> 7`` rows.
The scalar :func:`permutation_unrank`, :func:`permutation_rank` and
:func:`lehmer_code` are the named parity oracles: every degree through the
int64 rank ceiling, batch sizes on both sides of every tile edge, one-row
tiles (``CHUNK_NODES`` of 1 and 7), and every input layout the callers pass.
"""

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations import ranking
from repro.permutations.ranking import (
    MAX_INT64_RANK_DEGREE,
    implicit_neighbor_block,
    lehmer_code,
    permutation_rank,
    permutation_unrank,
    permutations_slice,
    rank_batch,
    ranks_to_keys,
    star_position_generators,
    unrank_batch,
)

DEGREES = range(1, MAX_INT64_RANK_DEGREE + 1)
#: Default tiles (8 192 rows), 8-row tiles, and one-row tiles twice.
CHUNKS = (ranking.CHUNK_NODES, 1 << 10, 7, 1)


def batch_sizes(tile):
    return sorted({0, 1, 2, tile - 1, tile, tile + 1, 3 * tile + 5})


def seeded_ranks(n, m, seed):
    """*m* ranks of degree *n* holding ``0`` first and ``n! - 1`` last."""
    total = math.factorial(n)
    ranks = np.random.default_rng(seed).integers(0, total, size=m, dtype=np.int64)
    if m:
        ranks[0] = 0
        ranks[-1] = total - 1
    return ranks


def oracle_rows(m, tile):
    """Row indices checked against the scalar oracles: edges of every tile."""
    if m <= 64:
        return range(m)
    edges = {0, m - 1}
    for start in range(0, m, tile):
        edges.update({start, start + 1, start + tile - 1, start + tile})
    return sorted(k for k in edges if 0 <= k < m)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("n", DEGREES)
def test_unrank_and_rank_match_the_scalar_oracles(monkeypatch, chunk, n):
    monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
    tile = max(1, chunk >> 7)
    for m in batch_sizes(tile):
        ranks = seeded_ranks(n, m, seed=1000 * n + m)
        perms = unrank_batch(ranks, n)
        assert perms.dtype == np.int8 and perms.shape == (m, n)
        assert perms.flags.c_contiguous
        back = rank_batch(perms)
        assert back.dtype == np.int64 and back.shape == (m,)
        assert np.array_equal(back, ranks)
        for k in oracle_rows(m, tile):
            row = tuple(int(symbol) for symbol in perms[k])
            assert row == permutation_unrank(int(ranks[k]), n)
            assert permutation_rank(row) == ranks[k]


@pytest.mark.parametrize("n", (4, 9, 13, 17, 20))
def test_rank_digits_are_lehmer_codes(n):
    ranks = seeded_ranks(n, 40, seed=n)
    perms = unrank_batch(ranks, n)
    place = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=object)
    for row, rank in zip(perms, ranks):
        code = lehmer_code(tuple(map(int, row)))
        assert int(np.dot(np.array(code, dtype=object), place)) == rank


def rank_inputs(perms):
    """The layouts callers hand to ``rank_batch``, each equal to *perms*."""
    m, n = perms.shape
    wide = np.zeros((2 * m, n + 3), dtype=np.int64)
    wide[::2, 1 : n + 1] = perms
    return {
        "int8": perms,
        "int64": perms.astype(np.int64),
        "uint8": perms.astype(np.uint8),
        "tuples": [tuple(map(int, row)) for row in perms],
        "fortran": np.asfortranarray(perms),
        "strided": wide[::2, 1 : n + 1],
        "transposed": np.ascontiguousarray(perms.T).T,
    }


@pytest.mark.parametrize("chunk", (ranking.CHUNK_NODES, 7, 1))
@pytest.mark.parametrize("n", (1, 2, 7, 13, 16, 20))
def test_rank_batch_input_layouts(monkeypatch, chunk, n):
    monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
    ranks = seeded_ranks(n, 37, seed=n)
    perms = unrank_batch(ranks, n)
    for name, rows in rank_inputs(perms).items():
        out = rank_batch(rows)
        assert out.dtype == np.int64 and out.shape == ranks.shape, name
        assert np.array_equal(out, ranks), name


@pytest.mark.parametrize("chunk", (ranking.CHUNK_NODES, 7, 1))
@pytest.mark.parametrize("n", (2, 5, 13, 20))
def test_neighbor_gather_shape(monkeypatch, chunk, n):
    """The ``perms[:, columns].reshape(-1, n)`` rows of the implicit block."""
    monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
    generators = star_position_generators(n)
    columns = np.asarray(generators, dtype=np.intp)
    ranks = seeded_ranks(n, 23, seed=n)
    perms = unrank_batch(ranks, n)
    moved = perms[:, columns].reshape(-1, n)
    expected = [
        permutation_rank(tuple(int(row[g]) for g in generator))
        for row in perms
        for generator in generators
    ]
    assert rank_batch(moved).tolist() == expected
    block = implicit_neighbor_block(ranks, generators, n)
    assert block.dtype == np.int64 and block.shape == (ranks.size, n - 1)
    assert block.reshape(-1).tolist() == expected


@pytest.mark.parametrize("ranks", ([], (), np.array([], dtype=np.float64)))
def test_empty_rank_input_of_any_dtype(ranks):
    out = unrank_batch(ranks, 5)
    assert out.shape == (0, 5) and out.dtype == np.int8


def test_integer_rank_inputs_of_any_width():
    expected = unrank_batch(np.array([0, 5, 23]), 4)
    for ranks in (
        [0, 5, 23],
        np.array([0, 5, 23], dtype=np.uint8),
        np.array([0, 5, 23], dtype=np.uint64),
        np.array([0, 5, 23], dtype=object),
        np.array([np.int16(0), 5, np.uint32(23)], dtype=object),
        iter([0, 5, 23]),
    ):
        assert np.array_equal(unrank_batch(ranks, 4), expected)


NON_INTEGER_RANKS = {
    "float": np.array([1.7, 2.2]),
    "integral float": [1.0, 2.0],
    "bool": [True, False],
    "bool array": np.array([True, False]),
    # NumPy promotes these plain lists to int64; the bools must still be seen.
    "bool among ints": [True, 5],
    "numpy bool among ints": [5, np.bool_(True)],
    "complex": np.array([1 + 0j]),
    "object float": np.array([1, 2.5], dtype=object),
    "object bool": np.array([1, True], dtype=object),
    "object string": np.array([1, "2"], dtype=object),
    "string": np.array(["1"]),
}

RANK_ENTRY_POINTS = {
    "unrank_batch": lambda ranks: unrank_batch(ranks, 4),
    "ranks_to_keys": lambda ranks: ranks_to_keys(ranks, 4),
    "ranks_to_keys past the packed degree": lambda ranks: ranks_to_keys(ranks, 17),
    "implicit_neighbor_block": lambda ranks: implicit_neighbor_block(
        ranks, star_position_generators(4), 4
    ),
}


@pytest.mark.parametrize("entry", sorted(RANK_ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(NON_INTEGER_RANKS))
def test_non_integer_ranks_raise(entry, kind):
    with pytest.raises(InvalidParameterError, match="integer ranks"):
        RANK_ENTRY_POINTS[entry](NON_INTEGER_RANKS[kind])


@pytest.mark.parametrize("ranks", ([2**70], np.array([2**64 - 1], dtype=np.uint64), [-1], [24]))
def test_out_of_range_integer_ranks_raise(ranks):
    with pytest.raises(InvalidParameterError, match=r"ranks must be in \[0, 24\)"):
        unrank_batch(ranks, 4)


@pytest.mark.parametrize(
    "start, stop",
    [(0.5, 3.7), (0, 3.0), (np.float64(1), 3), (True, 3), (0, np.bool_(True)), ([0], 3)],
)
def test_non_integer_slice_bounds_raise(start, stop):
    with pytest.raises(InvalidParameterError, match="slice bounds must be integers"):
        permutations_slice(start, stop, 4)


def test_numpy_integer_slice_bounds():
    expected = unrank_batch(np.arange(1, 5), 4)
    for start, stop in ((1, 5), (np.int64(1), np.uint8(5)), (np.int32(1), 5)):
        assert np.array_equal(permutations_slice(start, stop, 4), expected)
