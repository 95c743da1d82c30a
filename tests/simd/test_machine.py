"""Unit tests for the generic SIMD machine (registers, masks, local ops, routing)."""

import pytest

from repro.exceptions import MaskError, ProgramError, RouteConflictError, SimulationError
from repro.simd.machine import SIMDMachine
from repro.simd.masks import MASK_NONE, Mask
from repro.topology.mesh import Mesh


@pytest.fixture
def machine():
    return SIMDMachine(Mesh((3, 2)))


class TestRegisters:
    def test_define_with_constant_broadcasts(self, machine):
        machine.define_register("A", 5)
        assert all(v == 5 for v in machine.read_register("A").values())
        assert machine.stats.broadcasts == 1

    def test_define_with_callable(self, machine):
        machine.define_register("A", lambda node: node[0] * 10 + node[1])
        assert machine.read_value("A", (2, 1)) == 21

    def test_define_with_mapping(self, machine):
        machine.define_register("A", {node: i for i, node in enumerate(machine.nodes)})
        assert machine.read_value("A", machine.nodes[3]) == 3

    def test_mapping_missing_nodes_default_to_none(self, machine):
        machine.define_register("A", {(0, 0): 1})
        assert machine.read_value("A", (1, 1)) is None

    def test_write_and_read_value(self, machine):
        machine.define_register("A", 0)
        machine.write_value("A", (1, 0), 99)
        assert machine.read_value("A", (1, 0)) == 99

    def test_undefined_register_raises(self, machine):
        with pytest.raises(ProgramError):
            machine.read_register("nope")
        with pytest.raises(ProgramError):
            machine.read_value("nope", (0, 0))

    def test_register_names(self, machine):
        machine.define_register("B", 0)
        machine.define_register("A", 0)
        assert machine.register_names == ["A", "B"]

    def test_num_pes(self, machine):
        assert machine.num_pes == 6


class TestApply:
    def test_unmasked_apply(self, machine):
        machine.define_register("A", 2)
        machine.apply("B", lambda a: a * a, "A")
        assert all(v == 4 for v in machine.read_register("B").values())

    def test_masked_apply_with_predicate(self, machine):
        machine.define_register("A", 1)
        machine.define_register("B", 0)
        machine.apply("B", lambda a: a + 10, "A", where=lambda node: node[0] == 0)
        values = machine.read_register("B")
        assert values[(0, 0)] == 11 and values[(0, 1)] == 11
        assert values[(1, 0)] == 0

    def test_apply_counts_local_operations(self, machine):
        machine.define_register("A", 1)
        machine.apply("A", lambda a: a + 1, "A", where=lambda node: node[1] == 0)
        assert machine.stats.local_operations == 3

    def test_apply_multiple_sources(self, machine):
        machine.define_register("A", 3)
        machine.define_register("B", 4)
        machine.apply("C", lambda a, b: a + b, "A", "B")
        assert all(v == 7 for v in machine.read_register("C").values())

    def test_copy_register(self, machine):
        machine.define_register("A", lambda node: node)
        machine.copy_register("A", "B")
        assert machine.read_register("B") == machine.read_register("A")

    def test_paper_instruction_example(self, machine):
        # The paper's masked instruction A(i) := A(i) + 1, (f(i) = y).
        machine.define_register("A", 0)
        machine.apply("A", lambda a: a + 1, "A", where=lambda node: node[0] == 1)
        assert sum(machine.read_register("A").values()) == 2


class TestRouteMoves:
    def test_single_unit_route(self, machine):
        machine.define_register("A", lambda node: node)
        machine.define_register("B", None)
        machine.route_moves("A", "B", [((0, 0), (0, 1)), ((1, 0), (1, 1))])
        assert machine.read_value("B", (0, 1)) == (0, 0)
        assert machine.read_value("B", (1, 1)) == (1, 0)
        assert machine.stats.unit_routes == 1
        assert machine.stats.messages == 2

    def test_rejects_non_adjacent_move(self, machine):
        machine.define_register("A", 0)
        with pytest.raises(SimulationError):
            machine.route_moves("A", "B", [((0, 0), (2, 1))])

    def test_detects_double_send(self, machine):
        machine.define_register("A", 0)
        with pytest.raises(RouteConflictError):
            machine.route_moves("A", "B", [((1, 0), (0, 0)), ((1, 0), (2, 0))])

    def test_detects_double_receive(self, machine):
        machine.define_register("A", 0)
        with pytest.raises(RouteConflictError):
            machine.route_moves("A", "B", [((0, 0), (1, 0)), ((2, 0), (1, 0))])

    def test_conflict_check_can_be_disabled(self):
        machine = SIMDMachine(Mesh((3, 2)), check_conflicts=False)
        machine.define_register("A", 1)
        machine.route_moves("A", "B", [((0, 0), (1, 0)), ((2, 0), (1, 0))])
        assert machine.stats.unit_routes == 1

    def test_simultaneous_exchange(self, machine):
        # Two adjacent PEs swap values in one unit route (values read before writes).
        machine.define_register("A", lambda node: node)
        machine.route_moves("A", "A", [((0, 0), (0, 1)), ((0, 1), (0, 0))])
        assert machine.read_value("A", (0, 0)) == (0, 1)
        assert machine.read_value("A", (0, 1)) == (0, 0)

    def test_auto_defines_destination_register(self, machine):
        machine.define_register("A", 7)
        machine.route_moves("A", "fresh", [((0, 0), (0, 1))])
        assert machine.read_value("fresh", (0, 1)) == 7


class TestRoutePaths:
    def test_multi_hop_delivery(self, machine):
        machine.define_register("A", lambda node: f"from{node}")
        machine.define_register("B", None)
        paths = {(0, 0): [(0, 0), (1, 0), (2, 0), (2, 1)]}
        used = machine.route_paths("A", "B", paths)
        assert used == 3
        assert machine.read_value("B", (2, 1)) == "from(0, 0)"
        assert machine.stats.unit_routes == 3

    def test_multiple_paths_in_lockstep(self, machine):
        machine.define_register("A", lambda node: node)
        machine.define_register("B", None)
        paths = {
            (0, 0): [(0, 0), (1, 0)],
            (0, 1): [(0, 1), (1, 1)],
        }
        assert machine.route_paths("A", "B", paths) == 1
        assert machine.read_value("B", (1, 0)) == (0, 0)
        assert machine.read_value("B", (1, 1)) == (0, 1)

    def test_path_must_start_at_source(self, machine):
        machine.define_register("A", 0)
        with pytest.raises(SimulationError):
            machine.route_paths("A", "B", {(0, 0): [(1, 0), (0, 0)]})

    def test_conflicting_paths_detected(self, machine):
        machine.define_register("A", 0)
        paths = {
            (0, 0): [(0, 0), (1, 0)],
            (2, 0): [(2, 0), (1, 0)],
        }
        with pytest.raises(RouteConflictError):
            machine.route_paths("A", "B", paths)

    def test_empty_paths_are_a_noop(self, machine):
        machine.define_register("A", 0)
        assert machine.route_paths("A", "B", {}) == 0
        assert machine.stats.unit_routes == 0

    def test_scratch_register_cleaned_up(self, machine):
        machine.define_register("A", 1)
        machine.route_paths("A", "B", {(0, 0): [(0, 0), (1, 0)]})
        assert "__transit__" not in machine.register_names


class TestMask:
    def test_all_and_none(self, machine):
        topo = machine.topology
        assert Mask.all_active(topo).count() == 6
        assert Mask.from_spec(topo, MASK_NONE).count() == 0

    def test_from_nodes_and_predicate(self, machine):
        topo = machine.topology
        mask = Mask.from_nodes(topo, [(0, 0), (2, 1)])
        assert mask.count() == 2 and mask.is_active((2, 1))
        predicate_mask = Mask.from_predicate(topo, lambda node: node[1] == 1)
        assert predicate_mask.count() == 3

    def test_from_nodes_rejects_foreign(self, machine):
        with pytest.raises(MaskError):
            Mask.from_nodes(machine.topology, [(9, 9)])

    def test_boolean_algebra(self, machine):
        topo = machine.topology
        left = Mask.from_predicate(topo, lambda node: node[0] == 0)
        right = Mask.from_predicate(topo, lambda node: node[1] == 0)
        assert (left & right).count() == 1
        assert (left | right).count() == 4
        assert (~left).count() == 4

    def test_coerce(self, machine):
        topo = machine.topology
        assert Mask.coerce(topo, None).count() == 6
        assert Mask.coerce(topo, [(0, 0)]).count() == 1
        assert Mask.coerce(topo, lambda node: True).count() == 6
        existing = Mask.all_active(topo)
        assert Mask.coerce(topo, existing) is existing

    def test_active_indices_order(self, machine):
        mask = Mask.from_predicate(machine.topology, lambda node: node[0] == 2)
        nodes = [machine.topology.node_from_index(i) for i in mask.active_indices()]
        assert nodes == [(2, 0), (2, 1)]


class TestStats:
    def test_reset(self, machine):
        machine.define_register("A", 0)
        machine.apply("A", lambda a: a, "A")
        machine.route_moves("A", "B", [((0, 0), (1, 0))])
        machine.reset_stats()
        snapshot = machine.stats.snapshot()
        assert snapshot["unit_routes"] == 0
        assert snapshot["messages"] == 0
        assert snapshot["local_operations"] == 0

    def test_snapshot_and_labels(self, machine):
        machine.define_register("A", 0)
        machine.route_moves("A", "B", [((0, 0), (1, 0))], label="test-route")
        snapshot = machine.stats.snapshot()
        assert snapshot["unit_routes"] == 1
        assert snapshot["label:test-route"] == 1

    def test_stats_addition(self, machine):
        from repro.simd.trace import RouteStatistics

        a = RouteStatistics(unit_routes=2, messages=5)
        b = RouteStatistics(unit_routes=1, messages=1, local_operations=4)
        combined = a + b
        assert combined.unit_routes == 3
        assert combined.messages == 6
        assert combined.local_operations == 4
