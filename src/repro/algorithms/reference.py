"""Per-call reference implementations of the algorithm kernels.

These are the pre-program-layer (seed) implementations, retained verbatim:
every route goes through the machine facade one call at a time, every local
operation runs a Python closure per active PE.  They serve two purposes:

* **parity oracles** -- the compiled route programs in the public modules
  (:mod:`repro.algorithms.sorting` etc.) must produce bit-identical registers
  *and* ledgers (mesh- and star-level); the tests in
  ``tests/algorithms/test_program_parity.py`` compare against these;
* **fallbacks** -- machines that are not exactly
  :class:`~repro.simd.mesh_machine.MeshMachine` /
  :class:`~repro.simd.embedded.EmbeddedMeshMachine` (e.g. the reference
  machine subclasses used by the fast-core parity tests), and opaque
  predicate masks that cannot key a program cache, take these paths so
  overridden machine behaviour is preserved exactly.

Do not "optimise" this module: its value is being the behaviourally frozen
baseline.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.exceptions import InvalidParameterError

__all__ = [
    "odd_even_transposition_sort",
    "shearsort_2d",
    "shift_dimension",
    "rotate_dimension",
    "prefix_sum_dimension",
    "segmented_totals",
    "mesh_broadcast",
    "mesh_reduce",
    "cayley_broadcast_tree",
]

_EMPTY = object()
_NEUTRAL = object()
_MISSING = object()


# ------------------------------------------------------------------- sorting
def _compare_exchange_phase(
    machine,
    register: str,
    dim: int,
    parity: int,
    *,
    ascending_mask=None,
) -> None:
    """One odd-even transposition phase along *dim* (see the public module)."""
    mesh = machine.mesh
    side = mesh.sides[dim]

    def is_low(node) -> bool:
        coord = node[dim]
        return coord % 2 == parity and coord + 1 < side

    def is_high(node) -> bool:
        coord = node[dim]
        return coord % 2 == 1 - parity and coord > 0

    sentinel = object()
    machine.define_register("_cmp_in", sentinel)
    # Low PEs send their value up; high PEs send theirs down.
    machine.route_dimension(register, "_cmp_in", dim, +1, where=is_low)
    machine.route_dimension(register, "_cmp_in", dim, -1, where=is_high)

    if ascending_mask is None:
        ascending_mask = lambda node: True  # noqa: E731

    def resolve(node_role_low: bool):
        def inner(current, incoming):
            if incoming is sentinel:
                return current
            low, high = (current, incoming) if current <= incoming else (incoming, current)
            return low if node_role_low else high
        return inner

    keep_small = resolve(True)
    keep_large = resolve(False)

    def low_rule(node) -> bool:
        return is_low(node) and ascending_mask(node)

    def low_rule_desc(node) -> bool:
        return is_low(node) and not ascending_mask(node)

    def high_rule(node) -> bool:
        return is_high(node) and ascending_mask(node)

    def high_rule_desc(node) -> bool:
        return is_high(node) and not ascending_mask(node)

    machine.apply(register, keep_small, register, "_cmp_in", where=low_rule)
    machine.apply(register, keep_large, register, "_cmp_in", where=high_rule)
    machine.apply(register, keep_large, register, "_cmp_in", where=low_rule_desc)
    machine.apply(register, keep_small, register, "_cmp_in", where=high_rule_desc)


def odd_even_transposition_sort(
    machine,
    register: str,
    dim: int,
    *,
    ascending_mask=None,
    phases: Optional[int] = None,
) -> int:
    """Per-call odd-even transposition sort (reference)."""
    mesh = machine.mesh
    side = mesh.sides[dim]
    total_phases = phases if phases is not None else side
    routes_before = machine.stats.unit_routes
    for phase in range(total_phases):
        _compare_exchange_phase(
            machine, register, dim, phase % 2, ascending_mask=ascending_mask
        )
    return machine.stats.unit_routes - routes_before


def shearsort_2d(machine, register: str, *, rounds: Optional[int] = None) -> int:
    """Per-call shearsort (reference); *rounds* caps the row/column rounds."""
    mesh = machine.mesh
    if mesh.ndim != 2:
        raise InvalidParameterError(
            f"shearsort_2d needs a 2-dimensional mesh, got {mesh.ndim} dimensions"
        )
    rows, _cols = mesh.sides
    routes_before = machine.stats.unit_routes

    def even_row(node) -> bool:
        return node[0] % 2 == 0

    total = rounds
    if total is None:
        total = max(1, math.ceil(math.log2(rows))) if rows > 1 else 1
    for _ in range(total):
        # Row phase: sort along the column dimension, snake-ordered.
        odd_even_transposition_sort(machine, register, dim=1, ascending_mask=even_row)
        # Column phase: sort along the row dimension, always ascending.
        odd_even_transposition_sort(machine, register, dim=0)
    # Final row phase leaves the data in snake order.
    odd_even_transposition_sort(machine, register, dim=1, ascending_mask=even_row)
    return machine.stats.unit_routes - routes_before


# ------------------------------------------------------------- shift / rotate
def shift_dimension(
    machine,
    register: str,
    dim: int,
    delta: int,
    steps: int = 1,
    *,
    fill: object = None,
    result: Optional[str] = None,
) -> int:
    """Per-call boundary shift (reference)."""
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    if delta not in (-1, +1):
        raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
    mesh = machine.mesh
    result = result or f"{register}_shift"
    routes_before = machine.stats.unit_routes

    machine.copy_register(register, result)
    for _ in range(steps):
        machine.define_register("_shift_in", fill)
        machine.route_dimension(result, "_shift_in", dim, delta)
        # Every PE replaces its value with what it received; PEs at the
        # upstream boundary received nothing and take the fill value.
        machine.copy_register("_shift_in", result)
    return machine.stats.unit_routes - routes_before


def rotate_dimension(
    machine,
    register: str,
    dim: int,
    steps: int = 1,
    *,
    result: Optional[str] = None,
) -> int:
    """Per-call cyclic rotation (reference)."""
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    mesh = machine.mesh
    side = mesh.sides[dim]
    result = result or f"{register}_rot"
    routes_before = machine.stats.unit_routes

    machine.copy_register(register, result)
    for _ in range(steps):
        # 1. Save the values at the far boundary (they will wrap around).
        machine.copy_register(result, "_wrap")
        # 2. Ordinary shift by one in the + direction.
        machine.define_register("_rot_in", None)
        machine.route_dimension(result, "_rot_in", dim, +1)
        machine.copy_register("_rot_in", result)
        # 3. Carry the saved boundary value back to coordinate 0, one hop at a
        #    time (only the boundary line participates, masked by coordinate).
        for position in range(side - 1, 0, -1):
            sender = lambda node, d=dim, p=position: node[d] == p  # noqa: E731
            machine.route_dimension("_wrap", "_wrap", dim, -1, where=sender)
        # 4. The wrapped value lands at coordinate 0.
        machine.apply(
            result,
            lambda _cur, wrapped: wrapped,
            result,
            "_wrap",
            where=lambda node, d=dim: node[d] == 0,
        )
    return machine.stats.unit_routes - routes_before


# --------------------------------------------------------------------- scans
def prefix_sum_dimension(
    machine,
    register: str,
    operator: Callable[[object, object], object],
    dim: int,
    *,
    result: Optional[str] = None,
) -> int:
    """Per-call inclusive scan (reference)."""
    mesh = machine.mesh
    side = mesh.sides[dim]
    result = result or f"{register}_scan"
    routes_before = machine.stats.unit_routes

    machine.copy_register(register, result)
    machine.define_register("_scan_in", _EMPTY)

    def fold(current, incoming):
        if incoming is _EMPTY:
            return current
        return operator(incoming, current)

    # Step s propagates the running prefix from coordinate s-1 to coordinate s:
    # after step s, every node with dim-coordinate <= s holds its full prefix.
    for step in range(1, side):
        sender = lambda node, d=dim, s=step: node[d] == s - 1  # noqa: E731
        receiver = lambda node, d=dim, s=step: node[d] == s  # noqa: E731
        machine.route_dimension(result, "_scan_in", dim, +1, where=sender)
        machine.apply(result, fold, result, "_scan_in", where=receiver)
        machine.apply("_scan_in", lambda _v: _EMPTY, "_scan_in")
    return machine.stats.unit_routes - routes_before


def segmented_totals(
    machine,
    register: str,
    operator: Callable[[object, object], object],
    dim: int,
    *,
    result: Optional[str] = None,
) -> int:
    """Per-call line-local allreduce (reference)."""
    mesh = machine.mesh
    side = mesh.sides[dim]
    result = result or f"{register}_total"
    routes_before = machine.stats.unit_routes

    prefix_sum_dimension(machine, register, operator, dim, result=result)
    machine.define_register("_total_in", _EMPTY)

    def adopt(current, incoming):
        return current if incoming is _EMPTY else incoming

    # The last PE of each line now holds the total; sweep it back toward 0.
    for step in range(side - 1, 0, -1):
        sender = lambda node, d=dim, s=step: node[d] == s  # noqa: E731
        receiver = lambda node, d=dim, s=step: node[d] == s - 1  # noqa: E731
        machine.route_dimension(result, "_total_in", dim, -1, where=sender)
        machine.apply(result, adopt, result, "_total_in", where=receiver)
        machine.apply("_total_in", lambda _v: _EMPTY, "_total_in")
    return machine.stats.unit_routes - routes_before


# ----------------------------------------------------------------- broadcast
def mesh_broadcast(
    machine, source_node: Sequence[int], register: str, *, result: Optional[str] = None
) -> int:
    """Per-call dimension-sweep broadcast (reference)."""
    mesh = machine.mesh
    source_node = mesh.validate_node(source_node)
    result = result or f"{register}_bcast"
    routes_before = machine.stats.unit_routes

    # Start with the value only at the source; the staging register must also
    # be pre-filled with the sentinel so PEs that receive nothing in a given
    # unit route are not confused by leftover values.
    machine.define_register(result, {node: _MISSING for node in mesh.nodes()})
    machine.define_register("_incoming", {node: _MISSING for node in mesh.nodes()})
    machine.write_value(result, source_node, machine.read_value(register, source_node))

    def adopt(current, incoming):
        if current is _MISSING and incoming is not _MISSING:
            return incoming
        return current

    for dim in range(mesh.ndim):
        side = mesh.sides[dim]
        for delta in (+1, -1):
            for _ in range(side - 1):
                machine.route_dimension(result, "_incoming", dim, delta)
                # A PE adopts the incoming value only if it has none yet.
                machine.apply(result, adopt, result, "_incoming")
                # Clear the staging register so stale values never leak into
                # the next unit route.
                machine.apply("_incoming", lambda _current: _MISSING, "_incoming")
    return machine.stats.unit_routes - routes_before


# ---------------------------------------------------------------- reductions
def mesh_reduce(
    machine,
    register: str,
    operator: Callable[[object, object], object],
    *,
    result: Optional[str] = None,
) -> object:
    """Per-call dimension-sweep reduction (reference)."""
    mesh = machine.mesh
    result = result or f"{register}_red"
    machine.copy_register(register, result)
    machine.define_register("_incoming_red", _NEUTRAL)

    def fold(current, incoming):
        if incoming is _NEUTRAL:
            return current
        return operator(current, incoming)

    for dim in range(mesh.ndim):
        side = mesh.sides[dim]
        for step in range(side - 1, 0, -1):
            # PEs whose coordinate along `dim` equals `step` push their partial
            # result one step toward 0; the receiver folds it in.
            sender_mask = lambda node, d=dim, s=step: node[d] == s  # noqa: E731
            receiver_mask = lambda node, d=dim, s=step: node[d] == s - 1  # noqa: E731
            machine.route_dimension(result, "_incoming_red", dim, -1, where=sender_mask)
            machine.apply(result, fold, result, "_incoming_red", where=receiver_mask)
            machine.apply("_incoming_red", lambda _v: _NEUTRAL, "_incoming_red")
    origin = tuple(0 for _ in mesh.sides)
    return machine.read_value(result, origin)


def _cayley_tree_phases(machine, root):
    """The BFS spanning-tree schedule as tuple node pairs, rebuilt per call.

    Returns ``[((depth, generator), [(parent, child), ...]), ...]`` sorted by
    ``(depth, generator)``; every non-root node hangs off its first neighbour
    (``neighbors()`` order) one BFS level closer to the root.  This is the
    tuple-walking twin of :func:`repro.algorithms.cayley.generator_tree_plan`.
    """
    topology = machine.topology
    distances = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    if len(distances) != topology.num_nodes:
        raise InvalidParameterError(f"{topology!r} is not connected; no spanning tree")
    groups = {}
    for node in topology.nodes():
        depth = distances[node]
        if depth == 0:
            continue
        for generator, neighbor in enumerate(topology.neighbors(node)):
            if distances[neighbor] == depth - 1:
                groups.setdefault((depth, generator), []).append((neighbor, node))
                break
    return sorted(groups.items())


def cayley_broadcast_tree(machine, source_node, register, *, result=None) -> int:
    """Per-call generator-scheduled tree broadcast (reference)."""
    topology = machine.topology
    source_node = topology.validate_node(source_node)
    result = result or f"{register}_bcast"

    # Only the source holds a value; every other PE is overwritten exactly
    # once (by its tree parent), so no adopt kernel is needed.
    machine.define_register(result, {node: _MISSING for node in topology.nodes()})
    machine.write_value(result, source_node, machine.read_value(register, source_node))

    phases = _cayley_tree_phases(machine, source_node)
    for (_depth, _generator), pairs in phases:
        machine.route_moves(result, result, pairs, label="broadcast-tree")
    return len(phases)
