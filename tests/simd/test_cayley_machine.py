"""Parity tests for :class:`~repro.simd.cayley_machine.CayleyMachine`.

The fast-core contract, extended to the whole Cayley family: the one-gather
``route_generator`` must be bit-identical -- registers and ledger -- to
routing the same moves through the generic validated tuple path
(``route_moves``), and the star-tree instance must behave exactly like
:class:`~repro.simd.star_machine.StarMachine`.  The star graph is the one
family whose public API numbers generators from 1 (the paper's ``g_j``);
:class:`TestGeneratorIndexSeam` pins the seam to the 0-based generic code.
"""

import pytest

from repro.algorithms.cayley import generator_tree_plan
from repro.exceptions import InvalidParameterError
from repro.permutations import ranking
from repro.simd.cayley_machine import CayleyMachine
from repro.simd.masks import Mask
from repro.simd.star_machine import StarMachine
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionTreeGraph,
)
from repro.topology.star import StarGraph


def fresh_machine(graph):
    machine = CayleyMachine(graph)
    machine.define_register("A", {node: index for index, node in enumerate(machine.nodes)})
    return machine


def family_graphs():
    return [
        PancakeGraph(4),
        BubbleSortGraph(4),
        TranspositionTreeGraph.star(4),
        TranspositionTreeGraph(5, ((0, 2), (1, 2), (2, 3), (3, 4))),
    ]


class TestConstruction:
    def test_rejects_non_cayley_topology(self):
        from repro.topology.hypercube import Hypercube

        with pytest.raises(InvalidParameterError):
            CayleyMachine(Hypercube(3))

    def test_graph_and_n_properties(self):
        machine = CayleyMachine(PancakeGraph(4))
        assert machine.graph == PancakeGraph(4)
        assert machine.n == 4
        assert machine.num_pes == 24


@pytest.mark.parametrize("graph", family_graphs(), ids=repr)
class TestRouteGeneratorParity:
    def test_full_route_matches_generic_path(self, graph):
        fast = fresh_machine(graph)
        slow = fresh_machine(graph)
        for generator in range(graph.num_generators):
            label = f"generator-{graph.generator_names[generator]}"
            fast.route_generator("A", "B", generator)
            moves = [
                (node, graph.neighbor_along(node, generator)) for node in slow.nodes
            ]
            slow.route_moves("A", "B", moves, label=label)
            assert fast.register_values("B") == slow.register_values("B")
            assert fast.stats.snapshot() == slow.stats.snapshot()

    def test_masked_route_matches_generic_path(self, graph):
        fast = fresh_machine(graph)
        slow = fresh_machine(graph)
        predicate = lambda node: node[0] < 2  # noqa: E731
        fast.route_generator("A", "B", 0, where=predicate)
        moves = [
            (node, graph.neighbor_along(node, 0))
            for node in slow.nodes
            if predicate(node)
        ]
        slow.route_moves(
            "A", "B", moves, label=f"generator-{graph.generator_names[0]}"
        )
        assert fast.register_values("B") == slow.register_values("B")
        assert fast.stats.snapshot() == slow.stats.snapshot()

    def test_mask_and_node_collection_forms_agree(self, graph):
        selected = [node for node in graph.nodes() if node[0] == 0]
        by_mask = fresh_machine(graph)
        by_nodes = fresh_machine(graph)
        by_mask.route_generator(
            "A", "B", 1, where=Mask.from_nodes(graph, selected)
        )
        by_nodes.route_generator("A", "B", 1, where=selected)
        assert by_mask.register_values("B") == by_nodes.register_values("B")
        assert by_mask.stats.snapshot() == by_nodes.stats.snapshot()

    def test_route_is_an_involution(self, graph):
        machine = fresh_machine(graph)
        machine.route_generator("A", "B", 0)
        machine.route_generator("B", "C", 0)
        assert machine.register_values("C") == machine.register_values("A")

    def test_generator_index_validated(self, graph):
        machine = fresh_machine(graph)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", graph.num_generators)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", -1)


class TestStarTreeMatchesStarMachine:
    """CayleyMachine over the star tree == StarMachine, generator for generator."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_registers_and_counts_match(self, n):
        cayley = CayleyMachine(TranspositionTreeGraph.star(n))
        star = StarMachine(n)
        init = {node: index for index, node in enumerate(star.nodes)}
        cayley.define_register("A", init)
        star.define_register("A", init)
        for j in range(1, n):
            cayley.route_generator("A", "B", j - 1, label=f"generator-{j}")
            star.route_generator("A", "B", j)
            assert cayley.register_values("B") == star.register_values("B")
        assert cayley.stats.snapshot() == star.stats.snapshot()

    def test_masked_routes_match(self):
        cayley = CayleyMachine(TranspositionTreeGraph.star(4))
        star = StarMachine(4)
        init = {node: node[0] for node in star.nodes}
        cayley.define_register("A", init)
        star.define_register("A", init)
        predicate = lambda node: node[0] % 2 == 0  # noqa: E731
        cayley.route_generator("A", "B", 1, where=predicate, label="generator-2")
        star.route_generator("A", "B", 2, where=predicate)
        assert cayley.register_values("B") == star.register_values("B")
        assert cayley.stats.snapshot() == star.stats.snapshot()


def _route_all(machine, generators, *, where=None, labels=None):
    """Route ``A -> B_k`` along each given generator index; return the registers."""
    init = {node: index for index, node in enumerate(machine.nodes)}
    machine.define_register("A", init)
    for k, generator in enumerate(generators):
        label = labels[k] if labels else None
        machine.route_generator("A", f"B{k}", generator, where=where, label=label)
    return [machine.register_values(f"B{k}") for k in range(len(generators))]


def _ledgers(machine):
    """The counter ledger and the per-label route ledger."""
    return machine.stats.snapshot(), dict(machine.stats.by_label)


class TestGeneratorIndexSeam:
    """``StarGraph``/``StarMachine`` keep 1-based ``g_j``; generic code is 0-based.

    Generator ``k`` of the Cayley view of ``S_n`` is the paper's
    ``g_{k+1}``, so every path that crosses between the two numberings must
    land on the same routes, registers and ledgers.
    """

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cayley_machine_over_star_graph_is_the_star_tree(self, n):
        zero_based = list(range(n - 1))
        over_star = CayleyMachine(StarGraph(n))
        over_tree = CayleyMachine(TranspositionTreeGraph.star(n))
        star_registers = _route_all(over_star, zero_based)
        tree_registers = _route_all(
            over_tree, zero_based, labels=[f"generator-{j}" for j in range(1, n)]
        )
        assert star_registers == tree_registers
        assert _ledgers(over_star) == _ledgers(over_tree)
        assert set(over_star.stats.by_label) == {f"generator-{j}" for j in range(1, n)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_star_machine_forwards_j_to_j_minus_one(self, n):
        predicate = lambda node: node[-1] % 2 == 0  # noqa: E731
        for where in (None, predicate):
            star = StarMachine(n)
            cayley = CayleyMachine(StarGraph(n))
            one_based = _route_all(star, list(range(1, n)), where=where)
            zero_based = _route_all(cayley, list(range(n - 1)), where=where)
            assert one_based == zero_based
            assert _ledgers(star) == _ledgers(cayley)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tree_plan_over_star_graph_is_the_star_tree_plan(self, n):
        assert generator_tree_plan(StarGraph(n), 0) == generator_tree_plan(
            TranspositionTreeGraph.star(n), 0
        )

    @pytest.mark.parametrize(
        "make, generators",
        [
            (lambda: StarMachine(4), [1, 2, 3]),
            (lambda: CayleyMachine(StarGraph(4)), [0, 1, 2]),
            (lambda: CayleyMachine(PancakeGraph(4)), [0, 1, 2]),
        ],
        ids=["StarMachine", "CayleyMachine(StarGraph)", "CayleyMachine(PancakeGraph)"],
    )
    def test_beyond_table_fallback_matches_table_route(
        self, monkeypatch, make, generators
    ):
        predicate = lambda node: node[1] < 2  # noqa: E731
        for where in (None, predicate):
            table = make()
            table_registers = _route_all(table, generators, where=where)
            # Below the degree: no dense tables, the tuple fallback routes.
            monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 3)
            fallback = make()
            fallback_registers = _route_all(fallback, generators, where=where)
            monkeypatch.undo()
            assert fallback._generator_moves == {}  # no table was loaded
            assert fallback_registers == table_registers
            assert _ledgers(fallback) == _ledgers(table)
