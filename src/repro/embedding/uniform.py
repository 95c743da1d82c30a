"""Uniform-mesh simulation on the paper mesh / star graph (Section 4 + Appendix).

Most published mesh algorithms assume a *uniform* mesh (equal side lengths),
but the star graph naturally hosts the *mixed-radix* mesh ``D_n`` of size
``2 * 3 * ... * n``.  Section 4 of the paper bounds the cost of simulating a
uniform mesh ``U`` through a rectangular mesh ``R``:

* **Theorem 7** (Atallah 1988): if the dimension ``d`` is O(1), ``R`` can
  simulate every step of ``U`` in ``O(max_i l_i / N^{1/d})`` steps.
* **Theorem 8**: keeping the dependence on ``d``, the bound becomes
  ``O(max_i l_i * 2^d / N^{1/d})``.
* **Theorem 9**: a step of the ``(n-1)``-dimensional uniform mesh with
  ``N = n!`` processors therefore costs ``O(N^{n / log^2 N})`` steps on the
  star graph (through the dilation-3 embedding of ``D_n``).

The **Appendix** constructs, for any target dimension ``d``, an explicit
``d``-dimensional mesh ``R = l_1 * ... * l_d`` with ``prod l_k = n!`` that the
paper mesh can simulate in O(1) time: the side ``l_k`` collects the factors
``n-(k-1), n-(k-1)-d, n-(k-1)-2d, ...`` (every integer in ``2..n`` is used
exactly once).  For algorithms running in ``O(N^{1/d})`` time on a uniform
``d``-dimensional mesh, choosing ``d ~ sqrt(log N) / 2`` minimises the total
simulated time.

Besides the closed-form bounds this module provides a *measurable*
instantiation: :class:`UniformMeshSimulation` builds a concrete many-to-one
contraction of a uniform mesh onto ``D_n`` (or onto the appendix
factorisation) and measures the realised load and communication slowdown, so
the experiments can put numbers next to the asymptotic claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.topology.mesh import Mesh, paper_mesh
from repro.utils.mixed_radix import MixedRadix
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "factorise_paper_mesh",
    "atallah_slowdown",
    "uniform_on_paper_mesh_slowdown",
    "optimal_simulation_dimension",
    "UniformMeshSimulation",
]

Node = Tuple[int, ...]


# --------------------------------------------------------------------- appendix
def factorise_paper_mesh(n: int, d: int) -> Tuple[int, ...]:
    """The Appendix factorisation of ``n!`` into ``d`` mesh side lengths.

    Side ``k`` (1-based) is the product of ``n-(k-1), n-(k-1)-d, n-(k-1)-2d,
    ...`` keeping only factors ``>= 2``.  Together the sides use every integer
    in ``2..n`` exactly once, so their product is ``n!``.

    >>> factorise_paper_mesh(6, 2)
    (48, 15)
    >>> factorise_paper_mesh(7, 3)
    (28, 18, 10)
    """
    check_positive_int(n, "n", minimum=2)
    check_in_range(d, "d", 1, n - 1)
    sides: List[int] = []
    for k in range(1, d + 1):
        product = 1
        factor = n - (k - 1)
        while factor >= 2:
            product *= factor
            factor -= d
        sides.append(product)
    if math.prod(sides) != math.factorial(n):  # pragma: no cover - structural invariant
        raise InvalidParameterError(
            f"internal error: factorisation of {n}! into {d} sides is inconsistent"
        )
    return tuple(sides)


def optimal_simulation_dimension(n: int) -> int:
    """The dimension ``d`` minimising the Appendix simulation-time bound.

    For an algorithm running in ``O(N^{1/d})`` steps on a ``d``-dimensional
    uniform mesh, simulating it through the Appendix factorisation costs
    ``O(d * 2^d * N^{2/d})`` star-graph steps; the analytic minimiser is
    ``d ~ sqrt(log2 N) / 2`` (the paper's ``1/2 * sqrt(log N)``).  This helper
    evaluates the exact discrete bound for every ``d`` in ``1..n-1`` and
    returns the argmin, which the experiments compare against the analytic
    value.
    """
    check_positive_int(n, "n", minimum=2)
    total = math.factorial(n)
    best_d = 1
    best_cost = float("inf")
    for d in range(1, n):
        cost = d * (2.0**d) * (total ** (2.0 / d))
        if cost < best_cost:
            best_cost = cost
            best_d = d
    return best_d


# ------------------------------------------------------------------- Section 4
def atallah_slowdown(sides: Sequence[int], *, account_dimension: bool = True) -> float:
    """Per-step slowdown of simulating a uniform mesh on the mesh ``R`` with *sides*.

    ``R`` has ``N = prod(sides)`` processors; the simulated uniform mesh has
    side ``N^{1/d}`` in each of the ``d`` dimensions.  Theorem 7 gives
    ``max_i l_i / N^{1/d}``; Theorem 8 multiplies by ``2^d`` to account for a
    non-constant dimension (*account_dimension*).
    """
    sides = tuple(sides)
    if not sides or any(s < 1 for s in sides):
        raise InvalidParameterError("sides must be non-empty and positive")
    d = len(sides)
    total = math.prod(sides)
    base = max(sides) / (total ** (1.0 / d))
    if account_dimension:
        base *= 2.0**d
    return base


def uniform_on_paper_mesh_slowdown(n: int, *, dilation: int = 3) -> Dict[str, float]:
    """Theorem 9 quantities for degree *n*.

    Returns a dictionary with the per-step slowdown of simulating the uniform
    ``(n-1)``-dimensional mesh with ``n!`` processors:

    * ``theorem7`` -- ``max_i l_i / N^{1/(n-1)}`` with ``l_i = i + 1``
      (dimension treated as constant);
    * ``theorem8`` -- the same multiplied by ``2^{n-1}``;
    * ``on_star``  -- ``theorem8`` multiplied by the embedding *dilation*
      (3 unit routes per mesh unit route, Theorem 6);
    * ``paper_bound`` -- the paper's closed-form approximation
      ``N^{n / log2(N)^2}`` quoted in Theorem 9.
    """
    check_positive_int(n, "n", minimum=2)
    sides = tuple(range(2, n + 1))
    t7 = atallah_slowdown(sides, account_dimension=False)
    t8 = atallah_slowdown(sides, account_dimension=True)
    total = math.factorial(n)
    log2N = math.log2(total)
    paper_bound = total ** (n / (log2N**2)) if log2N > 0 else float("nan")
    return {
        "theorem7": t7,
        "theorem8": t8,
        "on_star": dilation * t8,
        "paper_bound": paper_bound,
    }


# --------------------------------------------------------- concrete instantiation
@dataclass(frozen=True)
class ContractionMetrics:
    """Measured quality of a many-to-one contraction of a uniform mesh."""

    uniform_sides: Tuple[int, ...]
    target_sides: Tuple[int, ...]
    uniform_nodes: int
    target_nodes: int
    max_load: int
    min_load: int
    average_load: float
    max_edge_distance: int
    average_edge_distance: float


class UniformMeshSimulation:
    """A concrete contraction of a uniform mesh onto the paper mesh ``D_n``.

    The uniform ``d``-dimensional mesh ``U`` with side ``s`` (``s**d`` nodes)
    is mapped onto ``D_n`` (or any target mesh) by linearising both index
    spaces in row-major order and assigning uniform node ``u`` to target node
    ``floor(rank(u) * |target| / |U|)``.  This is the simplest load-balanced
    contraction; it realises loads within one of each other and gives a
    measurable communication slowdown (the distance in the target mesh between
    the images of adjacent uniform-mesh nodes) to hold against Theorems 7-9.

    Parameters
    ----------
    uniform_sides:
        Side lengths of the uniform guest mesh ``U``.
    target:
        Host mesh; defaults to ``paper_mesh(n)`` when *n* is given instead.
    """

    def __init__(
        self,
        uniform_sides: Sequence[int],
        *,
        target: Optional[Mesh] = None,
        n: Optional[int] = None,
    ):
        sides = tuple(uniform_sides)
        if not sides or any(s < 1 for s in sides):
            raise InvalidParameterError("uniform_sides must be non-empty and positive")
        if target is None:
            if n is None:
                raise InvalidParameterError("provide either a target mesh or a degree n")
            target = paper_mesh(n)
        self._uniform = Mesh(sides)
        self._target = target
        self._uniform_radix = MixedRadix(sides)
        self._target_radix = MixedRadix(target.sides)

    def map_node(self, coords: Sequence[int]) -> Node:
        """Target-mesh node hosting the uniform-mesh node *coords*."""
        coords = self._uniform.validate_node(tuple(coords))
        rank = self._uniform_radix.encode(coords)
        target_rank = rank * self._target.num_nodes // self._uniform.num_nodes
        return self._target_radix.decode(target_rank)

    def measure(self) -> ContractionMetrics:
        """Measure load and edge stretch of the contraction.

        Index-native (PR 3): image ranks are one arithmetic sweep over the
        uniform node indices, loads one ``bincount`` and the per-edge
        Manhattan stretch a digitwise reduction over the decoded target
        coordinates -- no coordinate tuples are built.  The per-node
        enumeration (:meth:`measure_reference`) is its parity oracle (see
        ``tests/embedding/test_uniform.py``).
        """
        uniform_total = self._uniform.num_nodes
        target_total = self._target.num_nodes
        indices = np.arange(uniform_total, dtype=np.int64)
        image_ranks = indices * target_total // uniform_total

        load_counts = np.bincount(image_ranks, minlength=target_total)
        loads = load_counts[load_counts > 0]

        # Decoded target coordinates, one row per target dimension.
        target_coords = [
            (image_ranks // weight) % side
            for side, weight in zip(self._target.sides, self._target.index_weights())
        ]

        max_stretch = 0
        total_stretch = 0
        num_edges = 0
        for _dim, u_idx, v_idx in self._uniform.dimension_edge_indices():
            if u_idx.size == 0:
                continue
            stretch = np.zeros(u_idx.size, dtype=np.int64)
            for axis in target_coords:
                stretch += np.abs(axis[u_idx] - axis[v_idx])
            max_stretch = max(max_stretch, int(stretch.max()))
            total_stretch += int(stretch.sum())
            num_edges += int(u_idx.size)

        return ContractionMetrics(
            uniform_sides=self._uniform.sides,
            target_sides=self._target.sides,
            uniform_nodes=uniform_total,
            target_nodes=target_total,
            max_load=int(loads.max()),
            min_load=int(loads.min()),
            average_load=float(load_counts.sum()) / int(loads.size),
            max_edge_distance=max_stretch,
            average_edge_distance=(total_stretch / num_edges) if num_edges else 0.0,
        )

    def measure_reference(self) -> ContractionMetrics:
        """Per-node enumeration of the contraction (seed code, parity oracle)."""
        load: Dict[Node, int] = {}
        for coords in self._uniform.nodes():
            image = self.map_node(coords)
            load[image] = load.get(image, 0) + 1
        distances: List[int] = []
        for u, v in self._uniform.edges():
            distances.append(self._target.distance(self.map_node(u), self.map_node(v)))
        loads = list(load.values())
        return ContractionMetrics(
            uniform_sides=self._uniform.sides,
            target_sides=self._target.sides,
            uniform_nodes=self._uniform.num_nodes,
            target_nodes=self._target.num_nodes,
            max_load=max(loads),
            min_load=min(loads),
            average_load=sum(loads) / len(loads),
            max_edge_distance=max(distances) if distances else 0,
            average_edge_distance=(sum(distances) / len(distances)) if distances else 0.0,
        )
