"""Numba-jitted inner loops of the whole-graph kernels (optional backend).

Imported lazily and only when :func:`repro.backend.use_numba` is true, so the
package has no import-time numba dependency.  Every kernel here is the scalar
twin of a vectorised NumPy implementation that stays in the tree as the
bit-identical parity oracle:

* :func:`bfs_distances_kernel` -- the frontier-sweep BFS of
  :func:`repro.topology.routing.bfs_distances_from` and the masked floods of
  :mod:`repro.simulation.rerouting` (BFS level structure is unique, so any
  traversal order yields the same distance array);
* :func:`cycle_distances_kernel` -- the cycle-structure star distances of
  :func:`repro.topology.routing.star_distances_from` (per-row cycle walk
  instead of pointer-doubling cycle minima; same closed form, same ints);
* :func:`mesh_star_edges_kernel` -- the per-edge canonical-path tallies of
  the batched embedding measurement in :mod:`repro.embedding.metrics`;
* :func:`rank_batch_kernel` -- the per-row Lehmer encode of
  :func:`repro.permutations.ranking.rank_batch` (the same Lehmer digits as
  the NumPy seen-bitmask oracle, counted row at a time);
* :func:`implicit_neighbors_kernel` -- the fused
  ``unrank -> apply generator -> rank`` loop of
  :func:`repro.permutations.ranking.implicit_neighbor_block`, the compiled
  heart of the table-free adjacency backend (``REPRO_NEIGHBORS=implicit``).

The tables may be ``np.memmap`` views (the out-of-core cache of
:mod:`repro.tables`); numba treats them as ordinary arrays and the OS pages
in only the rows each loop touches.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = [
    "bfs_distances_kernel",
    "cycle_distances_kernel",
    "mesh_star_edges_kernel",
    "rank_batch_kernel",
    "implicit_neighbors_kernel",
]


@njit(cache=True)
def bfs_distances_kernel(table, origin, alive):
    """Single-source BFS distances over an adjacency index table.

    ``table`` is the ``(num_nodes, max_degree)`` neighbour-index table
    (``-1``-padded), ``alive`` a boolean mask (pass all-ones for the healthy
    graph).  Returns int64 distances with ``-1`` for dead/unreachable nodes
    -- bit-identical to the chunked NumPy frontier sweep.
    """
    num_nodes, width = table.shape
    distances = np.full(num_nodes, -1, dtype=np.int64)
    queue = np.empty(num_nodes, dtype=np.int64)
    head = 0
    tail = 0
    distances[origin] = 0
    queue[tail] = origin
    tail += 1
    while head < tail:
        current = queue[head]
        head += 1
        next_level = distances[current] + 1
        for k in range(width):
            neighbor = table[current, k]
            if neighbor < 0:
                continue
            if not alive[neighbor]:
                continue
            if distances[neighbor] < 0:
                distances[neighbor] = next_level
                queue[tail] = neighbor
                tail += 1
    return distances


@njit(cache=True)
def cycle_distances_kernel(mapping):
    """Star distances from relative position permutations, one row each.

    Evaluates the Akers--Krishnamurthy closed form ``sum(l - 1)`` over
    non-trivial cycles through position 0 and ``sum(l + 1)`` over the others,
    with the same outputs as the vectorised NumPy oracle
    ``repro.topology.routing._cycle_structure_distances``.
    """
    m, n = mapping.shape
    out = np.empty(m, dtype=np.int64)
    seen = np.zeros(n, dtype=np.bool_)
    for r in range(m):
        for p in range(n):
            seen[p] = False
        total = 0
        for start in range(n):
            if seen[start] or mapping[r, start] == start:
                continue
            length = 0
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                length += 1
                cursor = mapping[r, cursor]
            if start == 0:
                total += length - 1
            else:
                total += length + 1
        out[r] = total
    return out


@njit(cache=True)
def mesh_star_edges_kernel(source, target, move, u_ranks, v_ranks):
    """Canonical Lemma-2 path tallies for one chunk of mesh edges.

    ``source``/``target`` are the ``(m, n)`` permutation rows of the mapped
    endpoints, ``move`` the ``(num_nodes, n-1)`` generator move table,
    ``u_ranks``/``v_ranks`` the endpoint ranks.  Returns ``(lengths, links,
    consistent)`` where ``lengths[e]`` is 1 or 3, ``links`` holds one dense
    undirected host-link id ``min_rank * (n-1) + generator`` per traversed
    hop, and ``consistent`` aggregates the endpoint/adjacency/simplicity
    checks -- the same outputs as the vectorised NumPy chunk kernel.
    """
    m, n = source.shape
    lengths = np.empty(m, dtype=np.int64)
    links = np.empty(3 * m, dtype=np.int64)
    count = 0
    width = n - 1
    consistent = True
    for e in range(m):
        i = -1
        j = -1
        ndiff = 0
        for p in range(n):
            if source[e, p] != target[e, p]:
                ndiff += 1
                if i < 0:
                    i = p
                j = p
        if ndiff == 0:
            # Degenerate (equal endpoints): mirror the vectorised argmax
            # conventions so the flag, not an index fault, reports it.
            i = 0
            j = n - 1
        if (
            ndiff != 2
            or source[e, i] != target[e, j]
            or source[e, j] != target[e, i]
        ):
            consistent = False
        r0 = u_ranks[e]
        if i == 0:
            g = j - 1
            r1 = move[r0, g]
            if r1 != v_ranks[e]:
                consistent = False
            links[count] = min(r0, r1) * width + g
            count += 1
            lengths[e] = 1
        else:
            gi = i - 1
            gj = j - 1
            r1 = move[r0, gi]
            r2 = move[r1, gj]
            r3 = move[r2, gi]
            if r3 != v_ranks[e] or r0 == r2 or r1 == r3 or r0 == r3:
                consistent = False
            links[count] = min(r0, r1) * width + gi
            links[count + 1] = min(r1, r2) * width + gj
            links[count + 2] = min(r2, r3) * width + gi
            count += 3
            lengths[e] = 3
    return lengths, links[:count], consistent


@njit(cache=True)
def rank_batch_kernel(perms, fact):
    """Lexicographic ranks of an ``(m, n)`` permutation batch, one row each.

    ``fact`` is the int64 factorial table ``(0!, ..., n!)``.  Per row the
    classic O(n^2) Lehmer encode: digit ``i`` counts the smaller symbols to
    its right -- the same integers as the seen-bitmask popcounts of the
    NumPy oracle (``repro.permutations.ranking._rank_rows_numpy``).
    """
    m, n = perms.shape
    out = np.empty(m, dtype=np.int64)
    for r in range(m):
        rank = np.int64(0)
        for i in range(n - 1):
            pivot = perms[r, i]
            smaller = np.int64(0)
            for j in range(i + 1, n):
                if perms[r, j] < pivot:
                    smaller += 1
            rank += smaller * fact[n - 1 - i]
        out[r] = rank
    return out


@njit(cache=True)
def implicit_neighbors_kernel(ranks, generators, fact):
    """Neighbour ranks of a rank block with no table: unrank, apply, rank.

    ``generators`` is the ``(k, n)`` int64 array of position permutations,
    ``fact`` the factorial table ``(0!, ..., n!)``.  Per rank: decode the
    permutation from its factorial digits (shrinking available-symbol pool),
    then for each generator gather the moved row and re-encode its Lehmer
    rank -- entry ``(r, g)`` equals ``move_tables_for(...)[g][ranks[r]]``
    bit for bit, with O(n) state per rank instead of an ``(n!, k)`` table.
    """
    m = ranks.shape[0]
    k, n = generators.shape
    out = np.empty((m, k), dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    moved = np.empty(n, dtype=np.int64)
    available = np.empty(n, dtype=np.int64)
    for r in range(m):
        remainder = ranks[r]
        for p in range(n):
            available[p] = p
        size = n
        for i in range(n):
            base = fact[n - 1 - i]
            digit = remainder // base
            remainder -= digit * base
            perm[i] = available[digit]
            for t in range(digit, size - 1):
                available[t] = available[t + 1]
            size -= 1
        for g in range(k):
            for p in range(n):
                moved[p] = perm[generators[g, p]]
            rank = np.int64(0)
            for i in range(n - 1):
                pivot = moved[i]
                smaller = np.int64(0)
                for j in range(i + 1, n):
                    if moved[j] < pivot:
                        smaller += 1
                rank += smaller * fact[n - 1 - i]
            out[r, g] = rank
    return out
