"""Unit tests for the mask fast representation and the route-program layer."""

import dataclasses

import pytest

from repro.exceptions import MaskError, ProgramError
from repro.simd import kernels
from repro.simd.masks import (
    MASK_ALL,
    MASK_NONE,
    Mask,
    mask_flags,
    mask_indices,
    spec_and,
    spec_not,
    spec_or,
)
from repro.simd.mesh_machine import MeshMachine
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.programs import (
    Chain,
    Fill,
    Local,
    Route,
    ShiftSteps,
    compile_program,
    supports_programs,
)
from repro.simd.trace import RouteStatistics
from repro.topology.mesh import Mesh


# Both machines a program compiles for, over the same (3, 2) mesh.
BOTH_MACHINES = pytest.mark.parametrize(
    "factory",
    [lambda: MeshMachine((3, 2)), lambda: EmbeddedMeshMachine(3)],
    ids=["mesh", "embedded"],
)


@pytest.fixture
def numeric_only(monkeypatch):
    """Fail the test if a replay falls back to the object engine."""
    import repro.simd.programs as programs_module

    def no_object_engine(*args):
        raise AssertionError("the object engine ran")

    monkeypatch.setattr(programs_module, "_replay_objects", no_object_engine)


# -------------------------------------------------------------------- masks
class TestMaskFastRepresentation:
    def test_spec_masks_carry_keys(self):
        mesh = Mesh((3, 4))
        parity = Mask.from_spec(mesh, ("parity", 1, 0))
        assert parity.key == ("parity", 1, 0)
        assert Mask.from_spec(mesh, ("eq", 0, 2)).key == ("eq", 0, 2)
        assert Mask.from_spec(mesh, ("lt", 1, 3)).key == ("lt", 1, 3)
        assert Mask.from_spec(mesh, ("gt", 0, 0)).key == ("gt", 0, 0)

    def test_spec_masks_are_cached_and_shared(self):
        mesh = Mesh((3, 4))
        spec = ("parity", 1, 0)
        assert Mask.from_spec(mesh, spec) is Mask.from_spec(Mesh((3, 4)), spec)

    def test_dense_flags_match_predicate(self):
        mesh = Mesh((3, 4))
        mask = Mask.from_spec(mesh, ("parity", 1, 1))
        reference = Mask.from_predicate(mesh, lambda node: node[1] % 2 == 1)
        assert mask.dense_flags() == reference.dense_flags()
        assert mask.active_indices() == reference.active_indices()
        assert mask.count() == reference.count()

    def test_algebra_preserves_keys(self):
        mesh = Mesh((4, 2))
        low = Mask.from_spec(mesh, ("parity", 0, 0)) & Mask.from_spec(mesh, ("lt", 0, 3))
        assert low.key == ("and", ("parity", 0, 0), ("lt", 0, 3))
        assert (~Mask.from_spec(mesh, ("parity", 0, 0))).key == ("not", ("parity", 0, 0))
        assert (low | Mask.all_active(mesh)).key == MASK_ALL

    def test_predicate_masks_have_no_key(self):
        mesh = Mesh((2, 2))
        assert Mask.from_predicate(mesh, lambda node: True).key is None

    def test_spec_algebra_simplifications(self):
        a = ("parity", 0, 0)
        assert spec_and(MASK_ALL, a) == a
        assert spec_and(a, MASK_NONE) == MASK_NONE
        assert spec_or(MASK_NONE, a) == a
        assert spec_or(a, MASK_ALL) == MASK_ALL
        assert spec_not(spec_not(a)) == a

    def test_mask_flags_validates_spec(self):
        mesh = Mesh((3, 2))
        with pytest.raises(MaskError):
            mask_flags(mesh, ("parity", 5, 0))
        with pytest.raises(MaskError):
            mask_flags(mesh, ("frobnicate", 1))

    def test_mask_indices_match_flags(self):
        mesh = Mesh((3, 3))
        spec = spec_and(("gt", 0, 0), ("lt", 1, 2))
        flags = mask_flags(mesh, spec)
        assert list(mask_indices(mesh, spec)) == [
            index for index, flag in enumerate(flags) if flag
        ]

    def test_is_active_facade_still_works(self):
        mesh = Mesh((2, 3))
        mask = Mask.from_spec(mesh, ("eq", 1, 2))
        assert mask.is_active((0, 2)) and not mask.is_active((1, 1))
        with pytest.raises(MaskError):
            mask.is_active((9, 9))


# ------------------------------------------------------------------- kernels
class TestApplyKernel:
    def test_matches_apply_closure(self):
        sentinel = object()
        m1, m2 = MeshMachine((2, 3)), MeshMachine((2, 3))
        for machine in (m1, m2):
            machine.define_register("A", lambda node: node[0] * 3 + node[1])
            machine.define_register("B", lambda node: 10 - node[1])
        mask = ("parity", 1, 0)
        m1.apply_kernel("A", kernels.keep_min(sentinel), "A", "B",
                        where=Mask.from_spec(m1.topology, mask))
        m2.apply(
            "A",
            lambda a, b: a if b is sentinel else min(a, b),
            "A",
            "B",
            where=lambda node: node[1] % 2 == 0,
        )
        assert m1.read_register("A") == m2.read_register("A")
        assert m1.stats.snapshot() == m2.stats.snapshot()

    def test_source_arity_checked(self):
        machine = MeshMachine((2, 2))
        machine.define_register("A", 0)
        with pytest.raises(ProgramError):
            machine.apply_kernel("A", kernels.COPY, "A", "A")


# ----------------------------------------------------------------- ledger API
class TestRecordRoutes:
    def test_batched_equals_singles(self):
        batched, singles = RouteStatistics(), RouteStatistics()
        batched.record_routes(3, messages=17, label="x")
        for messages in (5, 5, 7):
            singles.record_route(messages=messages, label="x")
        assert batched.snapshot() == singles.snapshot()

    def test_charge_equals_singles(self):
        charged, singles = RouteStatistics(), RouteStatistics()
        charged.record_charge(2, 9, "x", 12, 3)
        charged.record_charge(0, 0, None, 4, 1)
        singles.record_routes(2, messages=9, label="x")
        singles.record_local(operations=16)
        for _ in range(4):
            singles.record_broadcast()
        assert charged.snapshot() == singles.snapshot()

    def test_zero_count_is_a_no_op(self):
        stats = RouteStatistics()
        stats.record_routes(0, messages=0, label="x")
        assert stats.snapshot() == RouteStatistics().snapshot()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RouteStatistics().record_routes(-1, messages=0)


# ------------------------------------------------------------------ programs
class TestRoutePrograms:
    def test_program_cached_per_geometry(self):
        steps = (Fill("S", 0), Route("S", "T", 0, +1))
        first = compile_program(MeshMachine((3, 2)), steps)
        second = compile_program(MeshMachine((3, 2)), steps)
        assert first is second
        other = compile_program(MeshMachine((2, 3)), steps)
        assert other is not first

    def test_program_shared_across_embedded_instances(self):
        steps = (Fill("S", 0), Route("S", "T", 0, +1))
        first = compile_program(EmbeddedMeshMachine(4), steps)
        second = compile_program(EmbeddedMeshMachine(4), steps)
        assert first is second

    def test_geometry_mismatch_raises(self):
        program = compile_program(MeshMachine((3, 2)), (Fill("S", 0),))
        with pytest.raises(ProgramError):
            program.run(MeshMachine((2, 2)))

    def test_supports_programs_excludes_subclasses(self):
        class Custom(MeshMachine):
            pass

        assert supports_programs(MeshMachine((2, 2)))
        assert supports_programs(EmbeddedMeshMachine(3))
        assert not supports_programs(Custom((2, 2)))

    def test_chain_fusion_matches_sequential_routes(self):
        fused, stepwise = MeshMachine((4, 2)), MeshMachine((4, 2))
        for machine in (fused, stepwise):
            machine.define_register("W", lambda node: node)
        program = compile_program(
            fused, (Chain("W", 0, -1, (3, 2, 1)),)
        )
        program.run(fused)
        for position in (3, 2, 1):
            stepwise.route_dimension(
                "W", "W", 0, -1, where=lambda node, p=position: node[0] == p
            )
        assert fused.read_register("W") == stepwise.read_register("W")
        assert fused.stats.snapshot() == stepwise.stats.snapshot()

    def test_shift_fusion_matches_stepwise(self):
        fused, stepwise = MeshMachine((5,)), MeshMachine((5,))
        for machine in (fused, stepwise):
            machine.define_register("A", lambda node: node[0] * 2)
        program = compile_program(
            fused, (ShiftSteps("A", "A_shift", "_shift_in", 0, +1, 2, -9),)
        )
        program.run(fused)
        stepwise.copy_register("A", "A_shift")
        for _ in range(2):
            stepwise.define_register("_shift_in", -9)
            stepwise.route_dimension("A_shift", "_shift_in", 0, +1)
            stepwise.copy_register("_shift_in", "A_shift")
        assert fused.read_register("A_shift") == stepwise.read_register("A_shift")
        assert fused.read_register("_shift_in") == stepwise.read_register("_shift_in")
        assert fused.stats.snapshot() == stepwise.stats.snapshot()

    @pytest.mark.parametrize(
        "factory",
        [lambda: MeshMachine((6, 2)), lambda: EmbeddedMeshMachine(3)],
        ids=["mesh", "embedded"],
    )
    def test_numeric_and_object_engines_agree(self, factory):
        sentinel = object()
        steps = (
            Fill("_in", sentinel),
            Route("K", "_in", 0, +1, ("parity", 0, 0)),
            Local("K", kernels.keep_max(sentinel), ("K", "_in"), ("parity", 0, 1)),
        )
        numeric, object_only = factory(), factory()
        for machine in (numeric, object_only):
            machine.define_register("K", lambda node: (node[0] * 7 + node[1]) % 5)
        program = compile_program(numeric, steps)
        assert program._numeric is not None
        program.run(numeric)
        # Numeric replays never build the object engine's ops.
        assert program._ops is None
        # Re-run the same program through the object engine alone.
        dataclasses.replace(program, _numeric=None).run(object_only)
        assert numeric.read_register("K") == object_only.read_register("K")
        # The staging register differs only in sentinel slots.
        fast_in = numeric.read_register("_in")
        slow_in = object_only.read_register("_in")
        for node, value in slow_in.items():
            if value is sentinel:
                assert fast_in[node] is sentinel
            else:
                assert fast_in[node] == value
        assert numeric.stats.snapshot() == object_only.stats.snapshot()
        if isinstance(numeric, EmbeddedMeshMachine):
            assert numeric.star_stats.snapshot() == object_only.star_stats.snapshot()

    @BOTH_MACHINES
    def test_numeric_engine_declines_mixed_int_and_float(self, factory):
        # A float constant over an int register: one shared dtype would cast
        # the ints to float64 and lose the low bits of 2**62 + 1 + ...
        machine = factory()
        machine.define_register("K", lambda node: 2**62 + 1 + 2 * node[0] + node[1])
        steps = (Local("K", kernels.const(0.5), ("K",), ("eq", 0, 0)),)
        compile_program(machine, steps).run(machine)
        values = machine.read_register("K")
        for node, value in values.items():
            if node[0] == 0:
                assert value == 0.5
            else:
                assert type(value) is int
                assert value == 2**62 + 1 + 2 * node[0] + node[1]
        small = factory()
        small.define_register("K", 1)
        compile_program(small, steps).run(small)
        unmasked = [node for node in small.mesh.nodes() if node[0] != 0]
        assert all(type(small.read_value("K", node)) is int for node in unmasked)

    def test_float_program_stays_numeric(self, numeric_only):
        machine = MeshMachine((3, 2))
        machine.define_register("K", lambda node: node[0] + 0.25)
        steps = (Local("K", kernels.const(0.5), ("K",), ("eq", 0, 0)),)
        compile_program(machine, steps).run(machine)
        assert machine.read_register("K") == {
            node: 0.5 if node[0] == 0 else node[0] + 0.25 for node in machine.mesh.nodes()
        }

    def test_numpy_scalar_registers_stay_numeric(self, numeric_only):
        import numpy as np

        from repro.algorithms import odd_even_transposition_sort

        machine = MeshMachine((4, 3))
        machine.define_register("K", lambda node: np.int64(11 - 3 * node[0] + node[1]))
        odd_even_transposition_sort(machine, "K", dim=0)
        values = machine.read_register("K")
        for node in machine.mesh.nodes():
            if node[0] < 3:
                assert values[node] <= values[(node[0] + 1, node[1])]

    def test_int_constant_beyond_int64_stays_on_object_engine(self):
        machine = MeshMachine((3, 2))
        machine.define_register("K", 1)
        program = compile_program(machine, (Fill("X", 2**70), Local("K", kernels.COPY, ("X",))))
        assert program._numeric is None and program._ops is None
        program.run(machine)
        assert set(machine.read_register("K").values()) == {2**70}
        assert program._ops is not None

    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize("delta", [+1, -1])
    def test_embedded_gather_is_the_plan_replay(self, dim, delta):
        # Tuple payloads take the object engine: the relabelled gather
        # perm[src] -> perm[dst] must equal the facade's star plan replay.
        compiled, facade = EmbeddedMeshMachine(4), EmbeddedMeshMachine(4)
        for machine in (compiled, facade):
            machine.define_register("A", lambda node: ("payload",) + node)
            machine.define_register("B", None)
        compile_program(compiled, (Route("A", "B", dim, delta),)).run(compiled)
        facade.route_dimension("A", "B", dim, delta)
        assert compiled.read_register("B") == facade.read_register("B")
        assert compiled.stats.snapshot() == facade.stats.snapshot()
        assert compiled.star_stats.snapshot() == facade.star_stats.snapshot()

    def test_integer_line_sort_replays_numerically_on_the_star(self, numeric_only):
        from repro.algorithms import odd_even_transposition_sort

        machine = EmbeddedMeshMachine(6)
        keys = {node: (index * 7919) % 1009 for index, node in enumerate(machine.mesh.nodes())}
        machine.define_register("K", keys)
        odd_even_transposition_sort(machine, "K", dim=0)
        values = machine.read_register("K")
        side = machine.mesh.sides[0]
        for node in machine.mesh.nodes():
            if node[0] + 1 < side:
                assert values[node] <= values[(node[0] + 1,) + node[1:]]

    def test_numeric_engine_bails_on_object_payload(self):
        steps = (
            Fill("_in", None),
            Route("K", "_in", 0, +1),
            Local("K", kernels.adopt(None), ("K", "_in")),
        )
        machine = MeshMachine((4,))
        machine.define_register("K", lambda node: ("payload", node[0]))
        program = compile_program(machine, steps)
        program.run(machine)  # must fall back without raising
        values = machine.read_register("K")
        assert values[(1,)] == ("payload", 0)

    @BOTH_MACHINES
    def test_fill_broadcasts_any_value_as_a_constant(self, factory):
        value = len  # a callable: still one broadcast constant
        program = compile_program(factory(), (Fill("F", value),))
        for replay in (program, dataclasses.replace(program, _numeric=None)):
            machine = factory()
            replay.run(machine)
            assert all(v is value for v in machine.read_register("F").values())
            owner = machine.stats if isinstance(machine, MeshMachine) else machine.star_stats
            assert owner.broadcasts == 1

    def test_validates_step_parameters(self):
        machine = MeshMachine((3, 2))
        with pytest.raises(ProgramError):
            compile_program(machine, (Route("A", "B", 5, +1),))
        with pytest.raises(ProgramError):
            compile_program(machine, (Route("A", "B", 0, 2),))
        with pytest.raises(ProgramError):
            compile_program(
                machine, (Local("A", kernels.COPY, ("A", "B")),)
            )

    def test_embedded_star_ledger_matches_facade(self):
        compiled, facade = EmbeddedMeshMachine(4), EmbeddedMeshMachine(4)
        for machine in (compiled, facade):
            machine.define_register("A", lambda node: node[0])
        program = compile_program(
            compiled,
            (
                Route("A", "B", 0, +1, ("lt", 0, 2)),
                Route("A", "B", 1, -1),
            ),
        )
        program.run(compiled)
        facade.route_dimension("A", "B", 0, +1, where=lambda node: node[0] < 2)
        facade.route_dimension("A", "B", 1, -1)
        assert compiled.read_register("B") == facade.read_register("B")
        assert compiled.stats.snapshot() == facade.stats.snapshot()
        assert compiled.star_stats.snapshot() == facade.star_stats.snapshot()
