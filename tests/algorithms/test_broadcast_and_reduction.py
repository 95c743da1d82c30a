"""Unit tests for broadcast and reduction kernels on both machine types."""

import math

import pytest

from repro.algorithms.broadcast import mesh_broadcast, star_broadcast_bound, star_broadcast_greedy
from repro.algorithms.reduction import mesh_reduce
from repro.exceptions import InvalidParameterError
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine
from repro.simd.star_machine import StarMachine


def make_machines(n=4):
    """A native D_n machine and an embedded one."""
    sides = tuple(range(n, 1, -1))
    return MeshMachine(sides), EmbeddedMeshMachine(n)


class TestMeshBroadcast:
    @pytest.mark.parametrize("machine_kind", ["native", "embedded"])
    def test_value_reaches_every_pe(self, machine_kind):
        native, embedded = make_machines(4)
        machine = native if machine_kind == "native" else embedded
        machine.define_register("A", {(2, 1, 1): "the value"})
        mesh_broadcast(machine, (2, 1, 1), "A")
        assert all(v == "the value" for v in machine.read_register("A_bcast").values())

    def test_route_count_is_two_sweeps_per_dimension(self):
        native, _ = make_machines(4)
        native.define_register("A", 1)
        routes = mesh_broadcast(native, (0, 0, 0), "A")
        expected = sum(2 * (side - 1) for side in (4, 3, 2))
        assert routes == expected

    def test_embedded_star_cost_within_theorem6_bound(self):
        _, embedded = make_machines(4)
        embedded.define_register("A", {(0, 0, 0): 13})
        mesh_broadcast(embedded, (0, 0, 0), "A")
        assert embedded.star_stats.unit_routes <= 3 * embedded.stats.unit_routes

    def test_custom_result_register(self):
        native, _ = make_machines(3)
        native.define_register("A", {(0, 0): 5})
        mesh_broadcast(native, (0, 0), "A", result="out")
        assert all(v == 5 for v in native.read_register("out").values())

    def test_other_pe_values_do_not_leak(self):
        native, _ = make_machines(3)
        native.define_register("A", lambda node: f"noise{node}")
        native.write_value("A", (1, 1), "signal")
        mesh_broadcast(native, (1, 1), "A")
        assert set(native.read_register("A_bcast").values()) == {"signal"}


class TestStarBroadcast:
    @pytest.mark.parametrize("n", [3, 4])
    def test_reaches_every_pe(self, n):
        machine = StarMachine(n)
        source = machine.star.paper_origin
        machine.define_register("V", {source: "hello"})
        routes = star_broadcast_greedy(machine, source, "V")
        assert all(v == "hello" for v in machine.read_register("V_bcast").values())
        assert routes == machine.stats.unit_routes

    def test_within_paper_bound(self):
        for n in (3, 4):
            machine = StarMachine(n)
            source = machine.star.identity
            machine.define_register("V", {source: 1})
            routes = star_broadcast_greedy(machine, source, "V")
            assert routes <= star_broadcast_bound(n)

    def test_at_least_log_n_factorial_routes(self):
        machine = StarMachine(4)
        source = machine.star.identity
        machine.define_register("V", {source: 1})
        routes = star_broadcast_greedy(machine, source, "V")
        assert routes >= math.ceil(math.log2(24))

    def test_requires_star_machine(self):
        native, _ = make_machines(3)
        native.define_register("V", 0)
        with pytest.raises(InvalidParameterError):
            star_broadcast_greedy(native, (0, 0), "V")

    def test_bound_rejects_small_n(self):
        with pytest.raises(InvalidParameterError):
            star_broadcast_bound(1)


class TestReduction:
    @pytest.mark.parametrize("machine_kind", ["native", "embedded"])
    def test_sum_reduction(self, machine_kind):
        native, embedded = make_machines(4)
        machine = native if machine_kind == "native" else embedded
        machine.define_register("A", lambda node: node[0] + 10 * node[1] + 100 * node[2])
        total = mesh_reduce(machine, "A", lambda a, b: a + b)
        expected = sum(node[0] + 10 * node[1] + 100 * node[2] for node in machine.mesh.nodes())
        assert total == expected

    def test_max_reduction(self):
        native, _ = make_machines(4)
        native.define_register("A", lambda node: node[0] * 7 - node[1])
        assert mesh_reduce(native, "A", max) == max(
            node[0] * 7 - node[1] for node in native.mesh.nodes()
        )

    def test_non_commutative_operator_string_concatenation(self):
        # Values are folded in coordinate order, so concatenation along a line is ordered.
        machine = MeshMachine((4,))
        machine.define_register("A", lambda node: str(node[0]))
        assert mesh_reduce(machine, "A", lambda a, b: a + b) == "0123"

    def test_result_register_holds_value_at_origin(self):
        native, _ = make_machines(3)
        native.define_register("A", 1)
        mesh_reduce(native, "A", lambda a, b: a + b, result="sum")
        assert native.read_value("sum", (0, 0)) == 6
