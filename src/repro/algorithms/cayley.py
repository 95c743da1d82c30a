"""Generator-scheduled broadcast and reduction on Cayley machines.

The mesh kernels sweep one dimension at a time; the natural analogue on a
permutation Cayley network schedules unit routes along one *generator* at a
time, over the edges of a BFS spanning tree rooted at the source:

* **broadcast** walks the tree root-to-leaves: phase ``(depth, g)`` routes
  every informed parent to its depth-``depth`` children reached along
  generator ``g`` (SIMD-A: one generator per unit route);
* **reduction** walks leaves-to-root: the same phases in reverse, each
  followed by a masked fold at the receiving parents.

The tree is compiled once per ``(graph, root)`` into a
:class:`GeneratorTreePlan` -- per phase, the dense sender/receiver index
lists -- and replayed with ``route_indexed`` gathers (conflict checking
skipped: within one phase the parent-child pairs are a subset of the
generator's perfect matching) and :meth:`~repro.simd.machine.SIMDMachine.apply_kernel`
folds.  Because the plan consumes only ``move_tables()`` and the BFS sweep,
the same program runs unchanged on every family --
:class:`~repro.simd.cayley_machine.CayleyMachine` over pancake, bubble-sort
or any transposition tree, and :class:`~repro.simd.star_machine.StarMachine`
over the paper's star graph.

Registers and ledgers are bit-identical to the retained per-call references
(:func:`repro.algorithms.reference.cayley_broadcast_tree` /
:func:`~repro.algorithms.reference.cayley_reduce_tree`), which rebuild the
tree per call from tuple BFS and route through the validated facade; the
parity tests hold the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

from repro.algorithms import reference as _reference
from repro.exceptions import InvalidParameterError
from repro.permutations.ranking import within_table_degree
from repro.simd import kernels as _kernels
from repro.simd.masks import Mask
from repro.topology.base import Node, Topology
from repro.topology.cayley import CayleyGraph
from repro.topology.routing import bfs_distances_from

__all__ = [
    "GeneratorTreePlan",
    "TreePhase",
    "generator_tree_plan",
    "cayley_broadcast_tree",
    "cayley_reduce_tree",
]

# Shared with the reference module so both implementations agree on the
# sentinels ("not yet informed" / "nothing to fold").
_MISSING = _reference._MISSING
_NEUTRAL = _reference._NEUTRAL


@dataclass(frozen=True)
class TreePhase:
    """One unit route of the tree schedule: ``depth`` and one generator.

    ``parents[k]`` and ``children[k]`` are dense node indices joined along
    *generator*; parents sit at BFS depth ``depth - 1``, children at
    ``depth``.  The pairs are a subset of the generator's perfect matching,
    so the phase can never conflict.
    """

    depth: int
    generator: int
    parents: Tuple[int, ...]
    children: Tuple[int, ...]


@dataclass(frozen=True)
class GeneratorTreePlan:
    """A compiled BFS spanning tree: the phase schedule for one root."""

    root_index: int
    depth: int
    phases: Tuple[TreePhase, ...]

    @property
    def num_unit_routes(self) -> int:
        """Unit routes per broadcast (= per reduction) replay."""
        return len(self.phases)


def _tree_supported(topology: Topology) -> bool:
    """True when *topology* is a Cayley graph within the dense-table degrees."""
    return isinstance(topology, CayleyGraph) and within_table_degree(topology.n)


@lru_cache(maxsize=64)
def generator_tree_plan(topology: Topology, root_index: int) -> GeneratorTreePlan:
    """Compile the BFS-tree phase schedule for *topology* rooted at *root_index*.

    Every non-root node adopts as parent its first neighbour (lowest
    move-table column) one BFS level closer to the root; phases are the
    ``(depth, generator)`` groups in ascending order.  Cached per
    ``(topology, root)`` -- topologies compare by value, so every machine over
    the same graph shares the plan.  The cache is bounded: a plan holds
    O(num_nodes) indices, so sweeping many roots on a large graph must not
    pin one plan per source forever.

    Parameters
    ----------
    topology : Topology
        A :class:`~repro.topology.cayley.CayleyGraph` (the star graph
        included) within the dense move-table degrees.
    root_index : int
        Dense node id of the tree root.

    Returns
    -------
    GeneratorTreePlan
        The compiled phase schedule.

    Raises
    ------
    InvalidParameterError
        If the topology is not a table-degree Cayley graph or is not connected.
    """
    if not _tree_supported(topology):
        raise InvalidParameterError(
            f"{topology!r} does not expose dense generator move tables"
        )
    distances = bfs_distances_from(topology, topology.node_from_index(root_index))
    tables = topology.move_tables()
    depth_of = [int(d) for d in distances]
    if any(d < 0 for d in depth_of):
        raise InvalidParameterError(f"{topology!r} is not connected; no spanning tree")
    groups: dict = {}
    for index, depth in enumerate(depth_of):
        if depth == 0:
            continue
        for generator, table in enumerate(tables):
            if depth_of[int(table[index])] == depth - 1:
                groups.setdefault((depth, generator), []).append(index)
                break
    phases = []
    for (depth, generator), children in sorted(groups.items()):
        table = tables[generator]
        phases.append(
            TreePhase(
                depth=depth,
                generator=generator,
                parents=tuple(int(table[child]) for child in children),
                children=tuple(children),
            )
        )
    return GeneratorTreePlan(
        root_index=root_index,
        depth=max(depth_of) if len(depth_of) > 1 else 0,
        phases=tuple(phases),
    )


def cayley_broadcast_tree(
    machine, source_node: Node, register: str, *, result: Optional[str] = None
) -> int:
    """Broadcast the value at *source_node* to every PE along the BFS tree.

    SIMD-A schedule: one generator per unit route, parents at depth ``d - 1``
    transmitting to their children at depth ``d``.  Runs on any machine over
    a permutation Cayley topology with dense move tables
    (:class:`~repro.simd.cayley_machine.CayleyMachine`,
    :class:`~repro.simd.star_machine.StarMachine`); other machines take the
    per-call reference path.

    Parameters
    ----------
    machine : SIMDMachine
        The machine whose register to broadcast.
    source_node : tuple of int
        Node holding the value to spread.
    register : str
        Source register name.
    result : str, optional
        Destination register (default ``register + "_bcast"``); afterwards it
        holds the value on every PE.

    Returns
    -------
    int
        Unit routes issued (``plan.num_unit_routes``, at most
        ``diameter * num_generators`` and at least the BFS depth).
    """
    topology = machine.topology
    if not _tree_supported(topology):
        return _reference.cayley_broadcast_tree(
            machine, source_node, register, result=result
        )
    source_node = topology.validate_node(source_node)
    result = result or f"{register}_bcast"

    # Only the source holds a value; everyone else starts at the sentinel and
    # is overwritten exactly once, by its tree parent.
    machine.define_register(result, {node: _MISSING for node in topology.nodes()})
    machine.write_value(result, source_node, machine.read_value(register, source_node))

    plan = generator_tree_plan(topology, topology.node_index(source_node))
    for phase in plan.phases:
        machine.route_indexed(
            result,
            result,
            list(zip(phase.parents, phase.children)),
            label="broadcast-tree",
            check_conflicts=False,
        )
    return plan.num_unit_routes


def cayley_reduce_tree(
    machine,
    register: str,
    operator: Callable[[object, object], object],
    *,
    root_node: Optional[Node] = None,
    result: Optional[str] = None,
) -> object:
    """Fold *register* over every PE with *operator*; the result lands at the root.

    The broadcast schedule in reverse: children at depth ``d`` push their
    partial results to their tree parents (one generator per unit route,
    deepest phases first), each followed by a fold masked to exactly the
    receiving parents.

    Parameters
    ----------
    machine : SIMDMachine
        The machine whose register to reduce.
    register : str
        Source register name.
    operator : callable
        Associative binary fold; values fold in a deterministic phase order,
        so commutativity is not required for reproducibility.
    root_node : tuple of int, optional
        Where the result lands (default the rank-0 node, the identity
        permutation).
    result : str, optional
        Result register (default ``register + "_red"``).

    Returns
    -------
    object
        The reduced value (also left in *result* at *root_node*).
    """
    topology = machine.topology
    if not _tree_supported(topology):
        return _reference.cayley_reduce_tree(
            machine, register, operator, root_node=root_node, result=result
        )
    root = (
        topology.validate_node(root_node)
        if root_node is not None
        else topology.node_from_index(0)
    )
    result = result or f"{register}_red"
    machine.apply_kernel(result, _kernels.COPY, register)
    machine.define_register("_incoming_cay", _NEUTRAL)

    fold = _kernels.fold(operator, _NEUTRAL, incoming_first=False)
    plan = generator_tree_plan(topology, topology.node_index(root))
    num_nodes = topology.num_nodes
    for phase in reversed(plan.phases):
        machine.route_indexed(
            result,
            "_incoming_cay",
            list(zip(phase.children, phase.parents)),
            label="reduce-tree",
            check_conflicts=False,
        )
        # Fold only at the parents that just received; staging entries left
        # behind at other PEs are never read (every later phase routes before
        # it folds), so no clearing pass is needed.
        flags = [False] * num_nodes
        for parent in phase.parents:
            flags[parent] = True
        machine.apply_kernel(
            result, fold, result, "_incoming_cay",
            where=Mask.from_flags(topology, flags),
        )
    return machine.read_value(result, root)

