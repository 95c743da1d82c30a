"""Parity and property tests for the Cayley tree broadcast/reduction programs.

The program-layer contract extended to the Cayley family: the compiled
:class:`~repro.algorithms.cayley.GeneratorTreePlan` replays must be
bit-identical -- registers *and* ledgers -- to the per-call references in
:mod:`repro.algorithms.reference`, on every family (pancake, bubble-sort,
transposition trees, and the star graph itself through both machines).
"""

import operator

import pytest

from repro.algorithms import reference as _reference
from repro.algorithms.broadcast import cayley_broadcast_greedy, star_broadcast_greedy
from repro.algorithms.cayley import (
    cayley_broadcast_tree,
    cayley_reduce_tree,
    generator_tree_plan,
)
from repro.exceptions import InvalidParameterError
from repro.simd.cayley_machine import CayleyMachine
from repro.simd.machine import SIMDMachine
from repro.simd.star_machine import StarMachine
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionCayleyGraph,
    TranspositionTreeGraph,
)
from repro.topology.hypercube import Hypercube
from repro.topology.routing import bfs_distances_from


def family_graphs():
    return [
        PancakeGraph(4),
        BubbleSortGraph(4),
        TranspositionTreeGraph.star(4),
        TranspositionTreeGraph(5, ((0, 1), (1, 2), (1, 3), (3, 4))),
    ]


def machine_pair(graph):
    fast = CayleyMachine(graph)
    slow = CayleyMachine(graph)
    init = {node: index + 1 for index, node in enumerate(fast.nodes)}
    fast.define_register("A", init)
    slow.define_register("A", init)
    return fast, slow


# ------------------------------------------------------------------ the plan
class TestGeneratorTreePlan:
    def test_plan_is_cached_per_graph_and_root(self):
        graph = PancakeGraph(4)
        assert generator_tree_plan(graph, 0) is generator_tree_plan(PancakeGraph(4), 0)
        assert generator_tree_plan(graph, 0) is not generator_tree_plan(graph, 1)

    @pytest.mark.parametrize("graph", family_graphs(), ids=repr)
    def test_phases_follow_bfs_levels(self, graph):
        plan = generator_tree_plan(graph, 0)
        distances = bfs_distances_from(graph, graph.node_from_index(0))
        covered = set()
        for phase in plan.phases:
            table = graph.move_tables()[phase.generator]
            assert len(phase.parents) == len(phase.children)
            for parent, child in zip(phase.parents, phase.children):
                assert int(distances[child]) == phase.depth
                assert int(distances[parent]) == phase.depth - 1
                assert int(table[parent]) == child
                covered.add(child)
        # Every non-root node is reached exactly once.
        assert len(covered) == graph.num_nodes - 1
        assert plan.depth == int(max(distances))
        assert plan.num_unit_routes >= plan.depth

    def test_disconnected_graph_rejected(self):
        # 4 positions split into two transposition pairs: n!/ (2 components)..
        graph = TranspositionCayleyGraph(4, ((0, 1), (2, 3)))
        with pytest.raises(InvalidParameterError):
            generator_tree_plan(graph, 0)

    def test_unsupported_topology_rejected(self):
        with pytest.raises(InvalidParameterError):
            generator_tree_plan(Hypercube(3), 0)


# ------------------------------------------------------------ ledger parity
@pytest.mark.parametrize("graph", family_graphs(), ids=repr)
class TestTreeParity:
    def test_broadcast_registers_and_ledgers_match_reference(self, graph):
        fast, slow = machine_pair(graph)
        source = graph.node_from_index(graph.num_nodes // 2)
        fast_routes = cayley_broadcast_tree(fast, source, "A")
        slow_routes = _reference.cayley_broadcast_tree(slow, source, "A")
        assert fast_routes == slow_routes
        assert fast.register_values("A_bcast") == slow.register_values("A_bcast")
        assert fast.stats.snapshot() == slow.stats.snapshot()
        # Everyone is informed with the source's value.
        expected = fast.read_value("A", source)
        assert all(value == expected for value in fast.register_values("A_bcast"))

    def test_reduce_registers_and_ledgers_match_reference(self, graph):
        fast, slow = machine_pair(graph)
        root = graph.node_from_index(3)
        fast_value = cayley_reduce_tree(fast, "A", operator.add, root_node=root)
        slow_value = _reference.cayley_reduce_tree(
            slow, "A", operator.add, root_node=root
        )
        assert fast_value == slow_value == sum(range(1, graph.num_nodes + 1))
        assert fast.register_values("A_red") == slow.register_values("A_red")
        assert fast.stats.snapshot() == slow.stats.snapshot()

    def test_reduce_with_non_commutative_operator_matches(self, graph):
        # Deterministic phase order: fast and reference must fold in the same
        # order even when the operator does not commute.
        fast, slow = machine_pair(graph)
        concat = lambda a, b: f"{a},{b}"  # noqa: E731
        fast_value = cayley_reduce_tree(fast, "A", concat)
        slow_value = _reference.cayley_reduce_tree(slow, "A", concat)
        assert fast_value == slow_value
        assert fast.stats.snapshot() == slow.stats.snapshot()


class TestStarMachineRunsTheSameProgram:
    """'Unchanged on every family' includes the paper's own machine."""

    def test_broadcast_on_star_machine(self):
        star = StarMachine(4)
        star.define_register("A", {node: node[0] for node in star.nodes})
        routes = cayley_broadcast_tree(star, star.star.paper_origin, "A")
        expected = star.star.paper_origin[0]
        assert all(value == expected for value in star.register_values("A_bcast"))
        assert routes == star.stats.unit_routes
        assert star.stats.by_label == {"broadcast-tree": routes}

    def test_reduce_on_star_machine_matches_cayley_machine(self):
        star = StarMachine(4)
        cayley = CayleyMachine(TranspositionTreeGraph.star(4))
        init = {node: index for index, node in enumerate(star.nodes)}
        star.define_register("A", init)
        cayley.define_register("A", init)
        assert cayley_reduce_tree(star, "A", operator.add) == cayley_reduce_tree(
            cayley, "A", operator.add
        )
        assert star.stats.snapshot() == cayley.stats.snapshot()

    def test_unsupported_machine_falls_back_to_reference(self):
        cube = SIMDMachine(Hypercube(3))
        cube.define_register("A", {node: sum(node) for node in cube.nodes})
        routes = cayley_broadcast_tree(cube, (0, 0, 0), "A")
        assert routes > 0
        assert all(value == 0 for value in cube.register_values("A_bcast"))
        total = cayley_reduce_tree(cube, "A", operator.add)
        assert total == sum(sum(node) for node in cube.nodes)


# ------------------------------------------------------------ greedy SIMD-B
class TestGreedyBroadcastGeneralisation:
    def test_star_entry_point_delegates_unchanged(self):
        direct = StarMachine(4)
        generic = StarMachine(4)
        init = {node: node[0] for node in direct.nodes}
        direct.define_register("A", init)
        generic.define_register("A", init)
        source = direct.star.identity
        assert star_broadcast_greedy(direct, source, "A") == cayley_broadcast_greedy(
            generic, source, "A"
        )
        assert direct.register_values("A_bcast") == generic.register_values("A_bcast")
        assert direct.stats.snapshot() == generic.stats.snapshot()

    def test_star_entry_point_still_requires_star_machine(self):
        machine = CayleyMachine(PancakeGraph(3))
        machine.define_register("A", 1)
        with pytest.raises(InvalidParameterError):
            star_broadcast_greedy(machine, (0, 1, 2), "A")

    @pytest.mark.parametrize(
        "graph", [PancakeGraph(4), BubbleSortGraph(4)], ids=repr
    )
    def test_greedy_informs_everyone_on_cayley_machines(self, graph):
        machine = CayleyMachine(graph)
        machine.define_register("A", {node: node[0] for node in machine.nodes})
        source = graph.node_from_index(7)
        routes = cayley_broadcast_greedy(machine, source, "A")
        expected = machine.read_value("A", source)
        assert all(value == expected for value in machine.register_values("A_bcast"))
        # Cannot inform faster than doubling allows, nor slower than one
        # neighbour per PE per route allows.
        assert routes >= plan_lower_bound(graph)

    def test_greedy_works_on_plain_hypercube_machine(self):
        machine = SIMDMachine(Hypercube(3))
        machine.define_register("A", {node: sum(node) for node in machine.nodes})
        routes = cayley_broadcast_greedy(machine, (1, 1, 1), "A")
        assert routes >= 3  # at least the diameter... of the far corner
        assert all(value == 3 for value in machine.register_values("A_bcast"))

    def test_greedy_stalls_on_disconnected_topology(self):
        graph = TranspositionCayleyGraph(4, ((0, 1), (2, 3)))
        machine = CayleyMachine(graph)
        machine.define_register("A", 1)
        with pytest.raises(InvalidParameterError):
            cayley_broadcast_greedy(machine, (0, 1, 2, 3), "A")


def plan_lower_bound(graph) -> int:
    """Broadcast needs at least the BFS depth of the farthest node."""
    distances = bfs_distances_from(graph, graph.node_from_index(7))
    return int(max(int(d) for d in distances))
