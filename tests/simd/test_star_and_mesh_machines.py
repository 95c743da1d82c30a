"""Unit tests for StarMachine and MeshMachine (topology-specific unit routes)."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.simd.mesh_machine import MeshMachine
from repro.simd.star_machine import StarMachine


class TestStarMachine:
    def test_construction(self):
        machine = StarMachine(4)
        assert machine.n == 4
        assert machine.num_pes == 24

    def test_rejects_degree_below_two(self):
        with pytest.raises(InvalidParameterError):
            StarMachine(1)

    def test_route_generator_moves_data_along_g_j(self):
        machine = StarMachine(3)
        machine.define_register("A", lambda node: node)
        machine.route_generator("A", "B", 2)
        for node in machine.nodes:
            sender = machine.star.neighbor_along(node, 2)
            assert machine.read_value("B", node) == sender

    def test_route_generator_is_one_unit_route(self):
        machine = StarMachine(4)
        machine.define_register("A", 0)
        machine.route_generator("A", "B", 1)
        assert machine.stats.unit_routes == 1
        assert machine.stats.messages == 24

    def test_route_generator_with_mask(self):
        machine = StarMachine(3)
        machine.define_register("A", "payload")
        machine.define_register("B", None)
        machine.route_generator("A", "B", 1, where=lambda node: node == (0, 1, 2))
        received = [node for node, value in machine.read_register("B").items() if value is not None]
        assert received == [(1, 0, 2)]

    def test_route_generator_rejects_bad_index(self):
        machine = StarMachine(4)
        machine.define_register("A", 0)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", 0)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", 4)

    def test_double_generator_route_restores_data(self):
        # Generators are involutions: routing twice along the same generator
        # brings every value back to its origin.
        machine = StarMachine(4)
        machine.define_register("A", lambda node: node)
        machine.route_generator("A", "B", 2)
        machine.route_generator("B", "C", 2)
        assert machine.read_register("C") == machine.read_register("A")


class TestMeshMachine:
    def test_construction(self):
        machine = MeshMachine((4, 3, 2))
        assert machine.sides == (4, 3, 2)
        assert machine.num_pes == 24

    def test_route_dimension_positive(self):
        machine = MeshMachine((3, 2))
        machine.define_register("A", lambda node: node)
        machine.define_register("B", None)
        machine.route_dimension("A", "B", 0, +1)
        assert machine.read_value("B", (1, 0)) == (0, 0)
        assert machine.read_value("B", (2, 1)) == (1, 1)
        # Boundary nodes at coordinate 0 receive nothing.
        assert machine.read_value("B", (0, 0)) is None

    def test_route_dimension_negative(self):
        machine = MeshMachine((3, 2))
        machine.define_register("A", lambda node: node)
        machine.define_register("B", None)
        machine.route_dimension("A", "B", 0, -1)
        assert machine.read_value("B", (0, 1)) == (1, 1)
        assert machine.read_value("B", (2, 0)) is None

    def test_route_counts_one_unit_route(self):
        machine = MeshMachine((4, 3))
        machine.define_register("A", 0)
        machine.route_dimension("A", "B", 1, +1)
        assert machine.stats.unit_routes == 1
        assert machine.stats.messages == 8  # 4 rows x 2 senders per row

    def test_route_dimension_with_mask(self):
        machine = MeshMachine((3, 3))
        machine.define_register("A", 1)
        machine.define_register("B", None)
        machine.route_dimension("A", "B", 1, +1, where=lambda node: node[0] == 0)
        receivers = [node for node, value in machine.read_register("B").items() if value is not None]
        assert receivers == [(0, 1), (0, 2)]

    def test_route_dimension_rejects_bad_arguments(self):
        machine = MeshMachine((3, 3))
        machine.define_register("A", 0)
        with pytest.raises(InvalidParameterError):
            machine.route_dimension("A", "B", 0, 2)
        with pytest.raises(InvalidParameterError):
            machine.route_dimension("A", "B", 5, 1)

    def test_route_along_paper_dimension(self):
        machine = MeshMachine((4, 3, 2))
        machine.define_register("A", lambda node: node)
        machine.define_register("B", None)
        # Paper dimension 1 is the length-2 dimension = tuple index 2.
        machine.route_dimension("A", "B", 2, +1)
        assert machine.read_value("B", (0, 0, 1)) == (0, 0, 0)
        assert machine.read_value("B", (0, 0, 0)) is None

    def test_length_one_dimension_never_routes(self):
        machine = MeshMachine((1, 3))
        machine.define_register("A", 1)
        machine.define_register("B", None)
        machine.route_dimension("A", "B", 0, +1)
        assert all(v is None for v in machine.read_register("B").values())
        assert machine.stats.messages == 0
