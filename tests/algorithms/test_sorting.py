"""Unit tests for the sorting kernels (odd-even transposition sort, shearsort)."""

import random

import pytest

from repro.algorithms.sorting import (
    odd_even_transposition_sort,
    shearsort_2d,
    snake_order_rank,
)
from repro.exceptions import InvalidParameterError
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine


def fill_random(machine, register, seed, high=1000):
    rng = random.Random(seed)
    data = {node: rng.randint(0, high) for node in machine.mesh.nodes()}
    machine.define_register(register, data)
    return data


class TestSnakeOrderRank:
    def test_even_rows_left_to_right(self):
        assert snake_order_rank((0, 0), (3, 4)) == 0
        assert snake_order_rank((0, 3), (3, 4)) == 3

    def test_odd_rows_right_to_left(self):
        assert snake_order_rank((1, 3), (3, 4)) == 4
        assert snake_order_rank((1, 0), (3, 4)) == 7

    def test_rank_is_a_bijection(self):
        sides = (4, 5)
        ranks = {snake_order_rank((r, c), sides) for r in range(4) for c in range(5)}
        assert ranks == set(range(20))

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidParameterError):
            snake_order_rank((0, 0, 0), (2, 2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            snake_order_rank((3, 0), (3, 4))


class TestOddEvenTranspositionSort:
    def test_sorts_a_line(self):
        machine = MeshMachine((8,))
        data = fill_random(machine, "K", seed=1)
        odd_even_transposition_sort(machine, "K", dim=0)
        values = machine.read_register("K")
        assert [values[(i,)] for i in range(8)] == sorted(data.values())

    def test_sorts_every_line_of_a_grid_in_parallel(self):
        machine = MeshMachine((3, 6))
        data = fill_random(machine, "K", seed=2)
        odd_even_transposition_sort(machine, "K", dim=1)
        values = machine.read_register("K")
        for row in range(3):
            line = [values[(row, col)] for col in range(6)]
            assert line == sorted(data[(row, col)] for col in range(6))

    def test_descending_lines_with_mask(self):
        machine = MeshMachine((2, 5))
        data = fill_random(machine, "K", seed=3)
        odd_even_transposition_sort(machine, "K", dim=1, ascending_mask=lambda node: node[0] == 0)
        values = machine.read_register("K")
        ascending = [values[(0, col)] for col in range(5)]
        descending = [values[(1, col)] for col in range(5)]
        assert ascending == sorted(ascending)
        assert descending == sorted(descending, reverse=True)

    def test_route_count_is_two_per_phase(self):
        machine = MeshMachine((6,))
        fill_random(machine, "K", seed=4)
        routes = odd_even_transposition_sort(machine, "K", dim=0)
        assert routes == 2 * 6

    def test_already_sorted_input_is_stable(self):
        machine = MeshMachine((5,))
        machine.define_register("K", lambda node: node[0])
        odd_even_transposition_sort(machine, "K", dim=0)
        values = machine.read_register("K")
        assert [values[(i,)] for i in range(5)] == [0, 1, 2, 3, 4]

    def test_duplicates_are_preserved(self):
        machine = MeshMachine((6,))
        machine.define_register("K", {(i,): v for i, v in enumerate([3, 1, 3, 0, 1, 3])})
        odd_even_transposition_sort(machine, "K", dim=0)
        values = machine.read_register("K")
        assert [values[(i,)] for i in range(6)] == [0, 1, 1, 3, 3, 3]

    def test_on_embedded_machine_matches_native(self):
        native = MeshMachine((4, 3, 2))
        embedded = EmbeddedMeshMachine(4)
        rng = random.Random(5)
        data = {node: rng.randint(0, 99) for node in native.mesh.nodes()}
        for machine in (native, embedded):
            machine.define_register("K", dict(data))
            odd_even_transposition_sort(machine, "K", dim=0)
        assert native.read_register("K") == embedded.read_register("K")
        assert embedded.star_stats.unit_routes <= 3 * embedded.stats.unit_routes


class TestShearsort:
    @pytest.mark.parametrize("sides", [(4, 4), (4, 6), (3, 5), (8, 3)])
    def test_sorts_into_snake_order(self, sides):
        machine = MeshMachine(sides)
        data = fill_random(machine, "K", seed=sum(sides))
        shearsort_2d(machine, "K")
        values = machine.read_register("K")
        ordered = [
            values[node]
            for node in sorted(machine.mesh.nodes(), key=lambda nd: snake_order_rank(nd, sides))
        ]
        assert ordered == sorted(data.values())

    def test_single_row_mesh(self):
        machine = MeshMachine((1, 7))
        data = fill_random(machine, "K", seed=11)
        shearsort_2d(machine, "K")
        values = machine.read_register("K")
        assert [values[(0, c)] for c in range(7)] == sorted(data.values())

    def test_rejects_non_2d_mesh(self):
        machine = MeshMachine((2, 2, 2))
        machine.define_register("K", 0)
        with pytest.raises(InvalidParameterError):
            shearsort_2d(machine, "K")

    def test_route_count_reported(self):
        machine = MeshMachine((4, 4))
        fill_random(machine, "K", seed=12)
        routes = shearsort_2d(machine, "K")
        assert routes == machine.stats.unit_routes
        assert routes > 0
