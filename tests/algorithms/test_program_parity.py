"""Parity: compiled route programs vs the per-call reference implementations.

Every public algorithm kernel compiles to a :class:`RouteProgram` on
:class:`MeshMachine` / :class:`EmbeddedMeshMachine`; the retained per-call
implementations (:mod:`repro.algorithms.reference`) are the behaviour oracle.
For each (algorithm, machine, degree) pair the two paths must produce

* bit-identical registers,
* bit-identical ledgers -- for the embedded machine both the mesh-level and
  the star-level :class:`RouteStatistics` snapshots, including labels.

Degrees 6..8 cover the ISSUE-2 acceptance band; the full-shearsort parity at
n = 8 takes minutes in the reference implementation and is gated behind
``REPRO_HEAVY_TESTS=1`` (a single round runs in tier-1 instead).
"""

import os
import random

import pytest

from repro.algorithms import (
    mesh_broadcast,
    mesh_reduce,
    odd_even_transposition_sort,
    prefix_sum_dimension,
    rotate_dimension,
    segmented_totals,
    shearsort_2d,
    shift_dimension,
    snake_order_rank,
)
from repro.algorithms import reference
from repro.embedding.uniform import factorise_paper_mesh
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine
from repro.topology.mesh import paper_mesh

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))

DEGREES = [6, 7, 8]


def native_machine(n):
    return MeshMachine(paper_mesh(n).sides)


def embedded_machine(n):
    return EmbeddedMeshMachine(n)


MACHINES = [("native", native_machine), ("embedded", embedded_machine)]


def machine_pair(factory, n, register="K", seed=0, payload="int"):
    fast, slow = factory(n), factory(n)
    rng = random.Random(seed * 1000 + n)
    if payload == "int":
        data = {node: rng.randint(0, 10**6) for node in fast.mesh.nodes()}
    else:  # comparable non-numeric payload forcing the object engine
        data = {node: f"{rng.randint(0, 10**6):07d}" for node in fast.mesh.nodes()}
    fast.define_register(register, dict(data))
    slow.define_register(register, dict(data))
    return fast, slow


def assert_parity(fast, slow, registers):
    __tracebackhide__ = True
    for name in registers:
        assert fast.read_register(name) == slow.read_register(name), name
    assert fast.stats.snapshot() == slow.stats.snapshot()
    if hasattr(fast, "star_stats"):
        assert fast.star_stats.snapshot() == slow.star_stats.snapshot()


# -------------------------------------------------------------------- sorting
class TestSortParity:
    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_line_sort(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=1)
        fast_routes = odd_even_transposition_sort(fast, "K", dim=0)
        slow_routes = reference.odd_even_transposition_sort(slow, "K", dim=0)
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K"])

    @pytest.mark.parametrize("n", [6])
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_line_sort_object_engine(self, kind, factory, n):
        # String keys are comparable but not numeric: the object engine runs.
        fast, slow = machine_pair(factory, n, seed=2, payload="str")
        odd_even_transposition_sort(fast, "K", dim=1)
        reference.odd_even_transposition_sort(slow, "K", dim=1)
        assert_parity(fast, slow, ["K"])

    @pytest.mark.parametrize("n", [6])
    def test_snake_masked_sort(self, n):
        # The shearsort row phase: spec-masked ascending lines (compiled)
        # vs the predicate form (reference).
        fast, slow = machine_pair(native_machine, n, seed=3)
        odd_even_transposition_sort(fast, "K", dim=1, ascending_mask=("parity", 0, 0))
        reference.odd_even_transposition_sort(
            slow, "K", dim=1, ascending_mask=lambda node: node[0] % 2 == 0
        )
        assert_parity(fast, slow, ["K"])

    def test_opaque_predicate_falls_back_to_reference(self):
        # A closure cannot key a program cache; both paths must still agree.
        fast, slow = machine_pair(native_machine, 5, seed=4)
        predicate = lambda node: node[0] == 0  # noqa: E731
        odd_even_transposition_sort(fast, "K", dim=1, ascending_mask=predicate)
        reference.odd_even_transposition_sort(slow, "K", dim=1, ascending_mask=predicate)
        assert_parity(fast, slow, ["K"])


class TestShearsortParity:
    @pytest.mark.parametrize("n", [6, 7] + ([8] if HEAVY else []))
    def test_one_round(self, n):
        sides = factorise_paper_mesh(n, 2)
        fast, slow = MeshMachine(sides), MeshMachine(sides)
        rng = random.Random(n)
        data = {node: rng.randint(0, 10**6) for node in fast.mesh.nodes()}
        fast.define_register("K", dict(data))
        slow.define_register("K", dict(data))
        fast_routes = shearsort_2d(fast, "K", rounds=1)
        slow_routes = reference.shearsort_2d(slow, "K", rounds=1)
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K"])

    @pytest.mark.parametrize("n", [6] + ([7, 8] if HEAVY else []))
    def test_full_sort(self, n):
        sides = factorise_paper_mesh(n, 2)
        fast, slow = MeshMachine(sides), MeshMachine(sides)
        rng = random.Random(100 + n)
        data = {node: rng.randint(0, 10**6) for node in fast.mesh.nodes()}
        fast.define_register("K", dict(data))
        slow.define_register("K", dict(data))
        fast_routes = shearsort_2d(fast, "K")
        slow_routes = reference.shearsort_2d(slow, "K")
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K"])
        # And the result really is snake-sorted.
        values = fast.read_register("K")
        ordered = [
            values[node]
            for node in sorted(
                fast.mesh.nodes(), key=lambda nd: snake_order_rank(nd, sides)
            )
        ]
        assert ordered == sorted(data.values())


# ------------------------------------------------------------- shift / rotate
class TestShiftRotateParity:
    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_rotation(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=5)
        fast_routes = rotate_dimension(fast, "K", dim=0, steps=2)
        slow_routes = reference.rotate_dimension(slow, "K", dim=0, steps=2)
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K", "K_rot", "_wrap", "_rot_in"])

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_rotation_short_dimension(self, kind, factory, n):
        # The last dimension has side 2: a one-hop carry chain.
        fast, slow = machine_pair(factory, n, seed=6)
        dim = len(fast.mesh.sides) - 1
        rotate_dimension(fast, "K", dim=dim, steps=1)
        reference.rotate_dimension(slow, "K", dim=dim, steps=1)
        assert_parity(fast, slow, ["K", "K_rot", "_wrap", "_rot_in"])

    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("kind,factory", MACHINES)
    @pytest.mark.parametrize("delta,steps", [(+1, 1), (-1, 3), (+1, 0)])
    def test_shift(self, kind, factory, n, delta, steps):
        fast, slow = machine_pair(factory, n, seed=7)
        fast_routes = shift_dimension(fast, "K", dim=0, delta=delta, steps=steps, fill=-1)
        slow_routes = reference.shift_dimension(
            slow, "K", dim=0, delta=delta, steps=steps, fill=-1
        )
        assert fast_routes == slow_routes == steps
        registers = ["K", "K_shift"] + (["_shift_in"] if steps else [])
        assert_parity(fast, slow, registers)

    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_shift_non_numeric_fill(self, kind, factory):
        fast, slow = machine_pair(factory, 5, seed=8)
        shift_dimension(fast, "K", dim=1, delta=+1, steps=2, fill=None)
        reference.shift_dimension(slow, "K", dim=1, delta=+1, steps=2, fill=None)
        assert_parity(fast, slow, ["K", "K_shift", "_shift_in"])


# --------------------------------------------------------------------- scans
class TestScanParity:
    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_prefix_sum(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=9)
        op = lambda a, b: a + b  # noqa: E731
        fast_routes = prefix_sum_dimension(fast, "K", op, dim=0)
        slow_routes = reference.prefix_sum_dimension(slow, "K", op, dim=0)
        assert fast_routes == slow_routes == fast.mesh.sides[0] - 1
        assert_parity(fast, slow, ["K", "K_scan"])

    @pytest.mark.parametrize("n", [6])
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_prefix_sum_non_commutative(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=10, payload="str")
        op = lambda a, b: a + b  # noqa: E731  (string concatenation)
        prefix_sum_dimension(fast, "K", op, dim=1)
        reference.prefix_sum_dimension(slow, "K", op, dim=1)
        assert_parity(fast, slow, ["K", "K_scan"])

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_segmented_totals(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=11)
        op = lambda a, b: a + b  # noqa: E731
        fast_routes = segmented_totals(fast, "K", op, dim=1)
        slow_routes = reference.segmented_totals(slow, "K", op, dim=1)
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K", "K_total"])


# ----------------------------------------------------------------- broadcast
class TestBroadcastParity:
    @pytest.mark.parametrize(
        "kind,factory,n",
        [("native", native_machine, n) for n in DEGREES]
        + [("embedded", embedded_machine, n) for n in ([6, 7, 8] if HEAVY else [6, 7])],
    )
    def test_mesh_broadcast(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=12)
        source = tuple([1] * fast.mesh.ndim)
        fast_routes = mesh_broadcast(fast, source, "K")
        slow_routes = reference.mesh_broadcast(slow, source, "K")
        assert fast_routes == slow_routes
        assert_parity(fast, slow, ["K", "K_bcast"])
        payload = fast.read_value("K", source)
        assert all(v == payload for v in fast.read_register("K_bcast").values())


# ---------------------------------------------------------------- reductions
class TestReductionParity:
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("kind,factory", MACHINES)
    def test_mesh_reduce(self, kind, factory, n):
        fast, slow = machine_pair(factory, n, seed=13)
        op = lambda a, b: a + b  # noqa: E731
        fast_value = mesh_reduce(fast, "K", op)
        slow_value = reference.mesh_reduce(slow, "K", op)
        assert fast_value == slow_value
        assert_parity(fast, slow, ["K", "K_red"])


# --------------------------------------------------- native vs embedded data
class TestCrossMachineParity:
    """The same compiled program on both backends moves the same data."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_sort_registers_match(self, n):
        native, _ = machine_pair(native_machine, n, seed=15)
        embedded, _ = machine_pair(embedded_machine, n, seed=15)
        odd_even_transposition_sort(native, "K", dim=0)
        odd_even_transposition_sort(embedded, "K", dim=0)
        assert native.read_register("K") == embedded.read_register("K")
        assert embedded.star_stats.unit_routes <= 3 * embedded.stats.unit_routes

    @pytest.mark.parametrize("n", [6])
    def test_rotate_registers_match(self, n):
        native, _ = machine_pair(native_machine, n, seed=16)
        embedded, _ = machine_pair(embedded_machine, n, seed=16)
        rotate_dimension(native, "K", dim=0, steps=1)
        rotate_dimension(embedded, "K", dim=0, steps=1)
        assert native.read_register("K_rot") == embedded.read_register("K_rot")
        # Mesh-level route/message counters agree between the backends.
        native_snapshot = native.stats.snapshot()
        embedded_snapshot = embedded.stats.snapshot()
        for key in ("unit_routes", "messages", "local_operations"):
            assert native_snapshot[key] == embedded_snapshot[key]
