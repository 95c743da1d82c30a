"""Unit tests for the mask fast representation and the route-program layer."""

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

    def test_numeric_and_object_engines_agree(self):
        import repro.simd.programs as programs_module

        sentinel = object()
        steps = (
            Fill("_in", sentinel),
            Route("K", "_in", 0, +1, ("parity", 0, 0)),
            Local("K", kernels.keep_max(sentinel), ("K", "_in"), ("parity", 0, 1)),
        )
        numeric, object_only = MeshMachine((6, 2)), MeshMachine((6, 2))
        for machine in (numeric, object_only):
            machine.define_register("K", lambda node: (node[0] * 7 + node[1]) % 5)
        program = compile_program(numeric, steps)
        assert program._numeric is not None
        program.run(numeric)
        # Re-run through the object engine by disabling the numeric plan.
        stripped = programs_module.RouteProgram(
            geometry=program.geometry, steps=program.steps, _ops=program._ops
        )
        stripped.run(object_only)
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
