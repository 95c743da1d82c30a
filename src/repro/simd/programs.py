"""Compiled route programs: whole algorithm phases as cached replay plans.

PR 1 made a *single* unit route fast; the algorithm kernels, however, issue
thousands of masked routes and masked local operations through the per-call
facade -- every masked ``route_dimension`` re-filtered its move table, every
compare-exchange ran a Python closure per PE.  A :class:`RouteProgram` compiles
a whole sequence of steps

* :class:`Fill` -- broadcast a constant into a register,
* :class:`Route` -- one masked SIMD-A unit route along a mesh dimension,
* :class:`Chain` -- a run of coordinate-masked unit routes on one register
  (the rotate carry chain), fused into a single precomputed gather,
* :class:`Local` -- a masked elementwise kernel (:mod:`repro.simd.kernels`),
* :class:`ShiftSteps` -- the ``k``-step boundary shift, fused into one gather
  plus a boundary fill,

into per-step precomputed gather indices, boundary fill index lists and
message counts, cached per ``(machine geometry, step sequence)`` and shared by
every machine of the same geometry.  Masks are *specs*
(:mod:`repro.simd.masks`), so the whole program is a hashable value.

Replay engines
--------------
``RouteProgram.run(machine)`` replays the program with ledger entries **bit
identical** to issuing the same steps through the per-call facade (for the
embedded machine: both the mesh-level and the star-level ledger, including
labels); batched updates go through
:meth:`repro.simd.trace.RouteStatistics.record_routes`.

Two data engines exist:

* the **object engine** moves Python objects through dense register lists via
  precompiled index lists -- any payload, both backends;
* the **numeric engine** (NumPy) runs eligible programs on
  :class:`~repro.simd.mesh_machine.MeshMachine` as whole-register vector
  operations when every touched register holds plain numbers.  Sentinel
  semantics are resolved at compile time by a static validity dataflow: the
  set of PEs that actually received a message in each staging register is a
  pure function of the program, so masked kernels shrink to precomputed
  "active and received" index arrays and sentinels never materialise.

Programs compile for :class:`~repro.simd.mesh_machine.MeshMachine` and
:class:`~repro.simd.embedded.EmbeddedMeshMachine` exactly (subclasses fall
back to the per-call facade in :mod:`repro.algorithms`, preserving their
overridden behaviour).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.exceptions import ProgramError
from repro.simd.kernels import Kernel, execute_kernel
from repro.simd.masks import MASK_ALL, mask_flags, mask_indices
from repro.simd.mesh_machine import MeshMachine
from repro.simd.plans import unit_route_plan, unit_route_plan_subset

__all__ = [
    "Fill",
    "Route",
    "Chain",
    "Local",
    "ShiftSteps",
    "RouteProgram",
    "compile_program",
    "supports_programs",
    "clear_program_cache",
]


# ---------------------------------------------------------------- step specs
@dataclass(frozen=True)
class Fill:
    """``register := value`` on every PE via one control-unit broadcast."""

    register: str
    value: object = None


@dataclass(frozen=True)
class Route:
    """One masked SIMD-A unit route along tuple dimension *dim*.

    Attributes
    ----------
    source, destination : str
        Register names (may coincide).
    dim : int
        Mesh tuple dimension to route along.
    delta : int
        Direction, ``+1`` or ``-1``.
    where : tuple, optional
        Mask spec (default all PEs active).
    label : str, optional
        Ledger label recorded with the route.
    """

    source: str
    destination: str
    dim: int
    delta: int
    where: Tuple = MASK_ALL
    label: Optional[str] = None


@dataclass(frozen=True)
class Chain:
    """Coordinate-masked unit routes ``register -> register``, one per *coords* entry.

    Step ``t`` routes the PEs with ``coords[dim] == coords[t]`` one step in
    direction *delta* -- the rotate carry chain.  The data effect of the whole
    chain is a fixed gather, precomputed at compile time; the ledger records
    ``len(coords)`` unit routes in one batched update.

    Attributes
    ----------
    register : str
        Register routed in place.
    dim : int
        Mesh tuple dimension to route along.
    delta : int
        Direction, ``+1`` or ``-1``.
    coords : tuple of int
        Coordinate value of the active PEs per chain step, in step order.
    label : str, optional
        Ledger label recorded with each route.
    """

    register: str
    dim: int
    delta: int
    coords: Tuple[int, ...]
    label: Optional[str] = None


@dataclass(frozen=True)
class Local:
    """Masked elementwise kernel ``destination := kernel(*sources)``."""

    destination: str
    kernel: Kernel
    sources: Tuple[str, ...]
    where: Tuple = MASK_ALL


@dataclass(frozen=True)
class ShiftSteps:
    """The ``steps``-fold boundary shift of *register* along *dim*, fused.

    Ledger-equivalent to ``copy; (fill; route; copy) * steps`` through the
    facade; the data effect collapses to one gather plus a boundary fill into
    *result* (and the final staging state into *scratch*).

    Attributes
    ----------
    register : str
        Source register.
    result, scratch : str
        Destination register and the staging register the facade would have
        left behind (kept for bit-identical register state).
    dim : int
        Mesh tuple dimension to shift along.
    delta : int
        Direction, ``+1`` or ``-1``.
    steps : int
        Number of unit shifts fused.
    fill : object, optional
        Boundary fill value.
    """

    register: str
    result: str
    scratch: str
    dim: int
    delta: int
    steps: int
    fill: object = None


Step = object  # union of the five dataclasses above


# ----------------------------------------------------------- geometry caches
# Per-mesh-geometry artifact cache: masked move lists, fused gathers, numeric
# index arrays.  Keyed by the Mesh object itself (value-hashable).
_MESH_ARTIFACTS: Dict[object, Dict] = {}

_PROGRAM_CACHE: "OrderedDict[Tuple, RouteProgram]" = OrderedDict()
_PROGRAM_CACHE_LIMIT = 256


def clear_program_cache() -> None:
    """Drop every cached program and geometry artifact (tests, memory)."""
    _PROGRAM_CACHE.clear()
    _MESH_ARTIFACTS.clear()


def _artifacts(mesh) -> Dict:
    store = _MESH_ARTIFACTS.get(mesh)
    if store is None:
        store = {}
        _MESH_ARTIFACTS[mesh] = store
    return store


def _dimension_table(mesh, dim: int, delta: int) -> List[Tuple[int, int]]:
    """Dense ``(sender, receiver)`` index moves of a full unit route."""
    store = _artifacts(mesh)
    key = ("table", dim, delta)
    table = store.get(key)
    if table is None:
        side = mesh.sides[dim]
        table = []
        index_of = {}
        nodes = list(mesh.nodes())
        for index, node in enumerate(nodes):
            index_of[node] = index
        for index, node in enumerate(nodes):
            value = node[dim] + delta
            if 0 <= value < side:
                destination = list(node)
                destination[dim] = value
                table.append((index, index_of[tuple(destination)]))
        store[key] = table
    return table


def _masked_moves(mesh, dim: int, delta: int, spec: Tuple) -> List[Tuple[int, int]]:
    """The unit-route moves restricted to senders selected by *spec* (cached)."""
    store = _artifacts(mesh)
    key = ("moves", dim, delta, spec)
    moves = store.get(key)
    if moves is None:
        table = _dimension_table(mesh, dim, delta)
        if spec == MASK_ALL:
            moves = table
        else:
            flags = mask_flags(mesh, spec)
            moves = [(src, dst) for src, dst in table if flags[src]]
        store[key] = moves
    return moves


def _chain_gather(mesh, chain: Chain) -> Tuple[List[Tuple[int, int]], int, int]:
    """Fused data effect of a :class:`Chain`: changed ``(index, source index)`` pairs.

    Returns ``(pairs, route_count, total_messages)``.  Computed by composing
    the per-coordinate routes symbolically (reads staged before writes, like
    the hardware), so the result is exact for any coordinate sequence.
    """
    store = _artifacts(mesh)
    key = ("chain", chain.dim, chain.delta, chain.coords)
    cached = store.get(key)
    if cached is None:
        state = list(range(mesh.num_nodes))
        total_messages = 0
        for coord in chain.coords:
            moves = _masked_moves(mesh, chain.dim, chain.delta, ("eq", chain.dim, coord))
            total_messages += len(moves)
            updates = [(dst, state[src]) for src, dst in moves]
            for dst, origin in updates:
                state[dst] = origin
        pairs = [
            (index, origin) for index, origin in enumerate(state) if origin != index
        ]
        cached = (pairs, len(chain.coords), total_messages)
        store[key] = cached
    return cached


def _shift_gather(
    mesh, dim: int, delta: int, steps: int
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Fused data effect of a ``steps``-fold shift: gather pairs + fill indices."""
    store = _artifacts(mesh)
    key = ("shift", dim, delta, steps)
    cached = store.get(key)
    if cached is None:
        side = mesh.sides[dim]
        pairs: List[Tuple[int, int]] = []
        fill_indices: List[int] = []
        stride = 1
        for s in mesh.sides[dim + 1 :]:
            stride *= s
        for index in range(mesh.num_nodes):
            coord = (index // stride) % side
            origin = coord - steps * delta
            if 0 <= origin < side:
                pairs.append((index, index + (origin - coord) * stride))
            else:
                fill_indices.append(index)
        cached = (pairs, fill_indices)
        store[key] = cached
    return cached


def _route_label(dim: int, delta: int) -> str:
    return f"dim{dim}{'+' if delta > 0 else '-'}"


def _star_route_label(dim: int, delta: int) -> str:
    return f"mesh-dim{dim}{'+' if delta > 0 else '-'}"


# ------------------------------------------------------------- numeric engine
# Validity tokens describe, at compile time, which PEs of a register hold real
# values (vs. a fill sentinel).  Tokens are hashable so the materialised index
# arrays are cached per geometry.
_V_ALL = ("vall",)
_V_NONE = ("vnone",)


def _v_or(a, b):
    if a == _V_ALL or b == _V_ALL:
        return _V_ALL
    if a == _V_NONE:
        return b
    if b == _V_NONE:
        return a
    if a == b:
        return a
    return ("vor", a, b)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _NumericCompiler:
    """Static validity dataflow turning mesh steps into NumPy index ops.

    Returns None (via ``bail``) whenever a step falls outside the supported
    fragment; the program then always uses the object engine.
    """

    def __init__(self, mesh, steps: Sequence[Step]):
        self.mesh = mesh
        self.steps = steps
        self.ops: List[Tuple] = []
        self.valid: Dict[str, Tuple] = {}
        self.filler: Dict[str, object] = {}
        self.written: List[str] = []
        # Registers whose pre-program contents the replay must load from the
        # machine (reads, and writes that do not fully overwrite).
        self.loads: List[str] = []
        # Registers fully materialised by an earlier program op.
        self.created: set = set()
        self.constants_float = False
        self.failed = False

    # -- token materialisation ------------------------------------------------
    def _token_indices(self, token):
        """Sorted numpy index array for a validity token (None means all)."""
        if token == _V_ALL:
            return None
        store = _artifacts(self.mesh)
        key = ("vtok", token)
        cached = store.get(key)
        if cached is None:
            if token == _V_NONE:
                cached = _np.empty(0, dtype=_np.intp)
            elif token[0] == "vrecv":
                _, dim, delta, spec = token
                moves = _masked_moves(self.mesh, dim, delta, spec)
                cached = _np.sort(
                    _np.fromiter((dst for _src, dst in moves), dtype=_np.intp, count=len(moves))
                )
            elif token[0] == "vor":
                left = self._token_indices(token[1])
                right = self._token_indices(token[2])
                cached = _np.union1d(left, right)
            else:  # pragma: no cover - token grammar is closed
                raise ProgramError(f"unknown validity token {token!r}")
            store[key] = cached
        return cached

    def _effective(self, spec, token):
        """Index array of (mask spec) intersected with (validity token)."""
        store = _artifacts(self.mesh)
        key = ("veff", spec, token)
        cached = store.get(key)
        if cached is None:
            mask_idx = store.get(("vmask", spec))
            if mask_idx is None:
                mask_idx = _np.fromiter(mask_indices(self.mesh, spec), dtype=_np.intp)
                store[("vmask", spec)] = mask_idx
            valid_idx = self._token_indices(token)
            if valid_idx is None:
                cached = mask_idx
            else:
                cached = _np.intersect1d(mask_idx, valid_idx, assume_unique=True)
            store[key] = cached
        return cached

    def _moves_arrays(self, dim, delta, spec):
        store = _artifacts(self.mesh)
        key = ("vmoves", dim, delta, spec)
        cached = store.get(key)
        if cached is None:
            moves = _masked_moves(self.mesh, dim, delta, spec)
            src = _np.fromiter((s for s, _d in moves), dtype=_np.intp, count=len(moves))
            dst = _np.fromiter((d for _s, d in moves), dtype=_np.intp, count=len(moves))
            cached = (src, dst)
            store[key] = cached
        return cached

    # -- dataflow -------------------------------------------------------------
    def bail(self) -> None:
        self.failed = True

    def _validity(self, register: str) -> Tuple:
        # Registers first seen as reads hold caller data: fully valid.
        return self.valid.get(register, _V_ALL)

    def _need(self, register: str) -> None:
        """Mark that the replay must load *register* from the machine."""
        if register not in self.created and register not in self.loads:
            self.loads.append(register)

    def _note_write(self, register: str, *, full: bool) -> None:
        if not full:
            self._need(register)
        else:
            self.created.add(register)
        if register not in self.written:
            self.written.append(register)

    def compile(self):
        for step in self.steps:
            if isinstance(step, Fill):
                self._compile_fill(step)
            elif isinstance(step, Route):
                self._compile_route(step)
            elif isinstance(step, Chain):
                self._compile_chain(step)
            elif isinstance(step, Local):
                self._compile_local(step)
            else:
                self.bail()  # ShiftSteps programs stay on the object engine
            if self.failed:
                return None
        writeback = []
        for register in self.written:
            token = self._validity(register)
            if token == _V_ALL:
                writeback.append((register, None, None))
            else:
                if register not in self.filler:
                    return None
                invalid = _np.setdiff1d(
                    _np.arange(self.mesh.num_nodes, dtype=_np.intp),
                    self._token_indices(token),
                    assume_unique=True,
                )
                writeback.append((register, invalid, self.filler[register]))
        return _NumericProgram(
            mesh=self.mesh,
            ops=self.ops,
            loads=list(self.loads),
            writeback=writeback,
            constants_float=self.constants_float,
        )

    def _compile_fill(self, step: Fill) -> None:
        self._note_write(step.register, full=True)
        if _is_number(step.value):
            if isinstance(step.value, float):
                self.constants_float = True
            self.valid[step.register] = _V_ALL
            self.ops.append(("fill", step.register, step.value))
        else:
            self.valid[step.register] = _V_NONE
            self.filler[step.register] = step.value
            self.ops.append(("alloc", step.register))

    def _compile_route(self, step: Route) -> None:
        self._need(step.source)
        if self._validity(step.source) != _V_ALL:
            return self.bail()
        src, dst = self._moves_arrays(step.dim, step.delta, step.where)
        label = step.label or _route_label(step.dim, step.delta)
        receivers = ("vrecv", step.dim, step.delta, step.where)
        self._note_write(step.destination, full=False)
        self.valid[step.destination] = _v_or(self._validity(step.destination), receivers)
        self.ops.append(("route", step.source, step.destination, src, dst, label))

    def _compile_chain(self, step: Chain) -> None:
        self._need(step.register)
        if self._validity(step.register) != _V_ALL:
            return self.bail()
        pairs, count, messages = _chain_gather(self.mesh, step)
        dst = _np.fromiter((i for i, _j in pairs), dtype=_np.intp, count=len(pairs))
        src = _np.fromiter((j for _i, j in pairs), dtype=_np.intp, count=len(pairs))
        label = step.label or _route_label(step.dim, step.delta)
        self._note_write(step.register, full=False)
        self.ops.append(("chain", step.register, src, dst, count, messages, label))

    def _compile_local(self, step: Local) -> None:
        kernel = step.kernel
        kind = kernel.kind
        count = (
            self.mesh.num_nodes
            if step.where == MASK_ALL
            else len(mask_indices(self.mesh, step.where))
        )
        if kind == "copy":
            source = step.sources[0]
            self._need(source)
            if step.where != MASK_ALL or self._validity(source) != _V_ALL:
                return self.bail()
            self._note_write(step.destination, full=True)
            self.valid[step.destination] = _V_ALL
            self.ops.append(("copy", step.destination, source, count))
            return
        if kind == "const":
            (value,) = kernel.params
            if _is_number(value):
                if isinstance(value, float):
                    self.constants_float = True
                if step.where == MASK_ALL:
                    self._note_write(step.destination, full=True)
                    self.valid[step.destination] = _V_ALL
                    self.ops.append(("const_full", step.destination, value, count))
                else:
                    if self._validity(step.destination) != _V_ALL:
                        return self.bail()
                    self._note_write(step.destination, full=False)
                    eff = self._effective(step.where, _V_ALL)
                    self.ops.append(("const_at", step.destination, eff, value, count))
                return
            if step.where == MASK_ALL:
                self._note_write(step.destination, full=True)
                self.valid[step.destination] = _V_NONE
                self.filler[step.destination] = value
                self.ops.append(("alloc_count", step.destination, count))
                return
            return self.bail()
        if kind in ("keep_min", "keep_max"):
            current, incoming = step.sources
            if step.destination != current:
                return self.bail()
            self._need(current)
            self._need(incoming)
            if self._validity(current) != _V_ALL:
                return self.bail()
            eff = self._effective(step.where, self._validity(incoming))
            self._note_write(step.destination, full=False)
            op = "min_at" if kind == "keep_min" else "max_at"
            self.ops.append((op, step.destination, incoming, eff, count))
            return
        if kind in ("replace", "adopt"):
            current, incoming = step.sources
            if step.destination != current:
                return self.bail()
            self._need(current)
            self._need(incoming)
            if self._validity(current) != _V_ALL:
                return self.bail()
            if kind == "replace":
                if self._validity(incoming) != _V_ALL:
                    return self.bail()
                eff = self._effective(step.where, _V_ALL)
            else:
                eff = self._effective(step.where, self._validity(incoming))
            self._note_write(step.destination, full=False)
            self.ops.append(("replace_at", step.destination, incoming, eff, count))
            return
        return self.bail()


@dataclass
class _NumericProgram:
    """The NumPy replay of a compiled program (mesh backend only)."""

    mesh: object
    ops: List[Tuple]
    loads: List[str]
    writeback: List[Tuple]
    constants_float: bool

    def run(self, machine: MeshMachine) -> bool:
        """Replay on *machine*; returns False if the registers disqualify.

        The eligibility checks (registers exist and hold one flat numeric
        vector each) all happen before the first ledger entry, so a False
        return leaves the machine untouched for the object engine.
        """
        registers = machine._registers
        arrays: Dict[str, object] = {}
        any_float = self.constants_float
        for name in self.loads:
            values = registers.get(name)
            if values is None:
                return False
            array = _np.asarray(values)
            if array.ndim != 1 or array.dtype.kind not in "if":
                return False
            arrays[name] = array
            if array.dtype.kind == "f":
                any_float = True
        dtype = _np.float64 if any_float else _np.int64
        for name, array in arrays.items():
            arrays[name] = array.astype(dtype, copy=True)
        n = self.mesh.num_nodes
        stats = machine._stats
        # apply() auto-defines a missing destination register (one extra
        # broadcast); mirror that for registers the machine does not have yet.
        defined = set(registers)

        def ensure_defined(name: str, *, explicit: bool) -> None:
            if explicit:
                defined.add(name)
            elif name not in defined:
                defined.add(name)
                stats.record_broadcast()

        for op in self.ops:
            kind = op[0]
            if kind == "fill":
                _, name, value = op
                arrays[name] = _np.full(n, value, dtype=dtype)
                ensure_defined(name, explicit=True)
                stats.record_broadcast()
            elif kind == "alloc":
                _, name = op
                arrays[name] = _np.zeros(n, dtype=dtype)
                ensure_defined(name, explicit=True)
                stats.record_broadcast()
            elif kind == "alloc_count":
                _, name, count = op
                arrays[name] = _np.zeros(n, dtype=dtype)
                ensure_defined(name, explicit=False)
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "route":
                _, source, destination, src, dst, label = op
                dest = arrays[destination]
                dest[dst] = arrays[source][src]
                stats.record_route(messages=len(src), label=label)
            elif kind == "chain":
                _, name, src, dst, count, messages, label = op
                array = arrays[name]
                array[dst] = array[src]
                stats.record_routes(count, messages=messages, label=label)
            elif kind == "copy":
                _, destination, source, count = op
                arrays[destination] = arrays[source].copy()
                ensure_defined(destination, explicit=False)
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "const_full":
                _, name, value, count = op
                arrays[name] = _np.full(n, value, dtype=dtype)
                ensure_defined(name, explicit=False)
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "const_at":
                _, name, eff, value, count = op
                arrays[name][eff] = value
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "min_at":
                _, name, incoming, eff, count = op
                array = arrays[name]
                array[eff] = _np.minimum(array[eff], arrays[incoming][eff])
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "max_at":
                _, name, incoming, eff, count = op
                array = arrays[name]
                array[eff] = _np.maximum(array[eff], arrays[incoming][eff])
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "replace_at":
                _, name, incoming, eff, count = op
                arrays[name][eff] = arrays[incoming][eff]
                stats.record_local(operations=count)
                stats.record_broadcast()
            else:  # pragma: no cover - op grammar is closed
                raise ProgramError(f"unknown numeric op {kind!r}")

        for name, invalid, filler in self.writeback:
            values = arrays[name].tolist()
            if invalid is not None:
                for index in invalid.tolist():
                    values[index] = filler
            registers[name] = values
        return True


# -------------------------------------------------------------- compiled ops
@dataclass
class _MeshOps:
    """Object-engine replay of a program on a native mesh machine."""

    mesh: object
    compiled: List[Tuple]

    def run(self, machine: MeshMachine) -> None:
        stats = machine._stats
        registers = machine._registers
        num_nodes = machine.num_pes
        for op in self.compiled:
            kind = op[0]
            if kind == "fill":
                _, register, value = op
                machine.define_register(register, value)
            elif kind == "route":
                _, source, destination, moves, label = op
                machine.route_indexed(
                    source, destination, moves, label=label, check_conflicts=False
                )
            elif kind == "chain":
                _, register, pairs, count, messages, label = op
                values = machine._register(register)
                updates = [(index, values[origin]) for index, origin in pairs]
                for index, value in updates:
                    values[index] = value
                stats.record_routes(count, messages=messages, label=label)
            elif kind == "local":
                _, destination, kernel, sources, indices, count = op
                if destination not in registers:
                    machine.define_register(destination)
                execute_kernel(
                    kernel,
                    machine._register(destination),
                    [machine._register(name) for name in sources],
                    indices,
                )
                stats.record_local(operations=count)
                stats.record_broadcast()
            elif kind == "shift":
                _, step, pairs, fill_indices, messages = op
                source = machine._register(step.register)
                result_was_missing = step.result not in registers
                if step.steps == 0:
                    result = list(source)
                else:
                    result = [step.fill] * num_nodes
                    for index, origin in pairs:
                        result[index] = source[origin]
                registers[step.result] = result
                if step.steps > 0:
                    registers[step.scratch] = list(result)
                # Ledger mirror of: copy; (fill; route; copy) * steps, plus
                # the auto-define broadcast of the first copy if needed.
                if result_was_missing:
                    stats.record_broadcast()
                stats.record_local(operations=(step.steps + 1) * num_nodes)
                for _ in range(2 * step.steps + 1):
                    stats.record_broadcast()
                if step.steps > 0:
                    stats.record_routes(
                        step.steps,
                        messages=step.steps * messages,
                        label=_route_label(step.dim, step.delta),
                    )
            else:  # pragma: no cover - op grammar is closed
                raise ProgramError(f"unknown mesh op {kind!r}")


@dataclass
class _EmbeddedOps:
    """Object-engine replay of a program on the embedded mesh-on-star machine."""

    n: int
    compiled: List[Tuple]

    def run(self, machine) -> None:
        mesh_stats = machine._mesh_stats
        star = machine._star_machine
        star_stats = star._stats
        star_registers = star._registers
        num_nodes = machine.num_pes
        for op in self.compiled:
            kind = op[0]
            if kind == "fill":
                _, register, value = op
                machine.define_register(register, value)
            elif kind == "route":
                _, source, destination, plan, mesh_label, star_label = op
                star.execute_plan(source, destination, plan, label=star_label)
                mesh_stats.record_route(messages=plan.num_paths, label=mesh_label)
            elif kind == "chain":
                (
                    _,
                    register,
                    star_pairs,
                    count,
                    mesh_messages,
                    star_count,
                    star_messages,
                    mesh_label,
                    star_label,
                ) = op
                values = star._register(register)
                updates = [(index, values[origin]) for index, origin in star_pairs]
                for index, value in updates:
                    values[index] = value
                star_stats.record_routes(
                    star_count, messages=star_messages, label=star_label
                )
                mesh_stats.record_routes(count, messages=mesh_messages, label=mesh_label)
            elif kind == "local":
                _, destination, kernel, sources, star_indices, count = op
                if destination not in star_registers:
                    star.define_register(destination)
                execute_kernel(
                    kernel,
                    star._register(destination),
                    [star._register(name) for name in sources],
                    star_indices,
                )
                star_stats.record_local(operations=count)
                star_stats.record_broadcast()
                mesh_stats.record_local(operations=count)
                mesh_stats.record_broadcast()
            elif kind == "shift":
                (
                    _,
                    step,
                    star_pairs,
                    star_fill_indices,
                    mesh_messages,
                    star_steps,
                    star_messages,
                ) = op
                source = star._register(step.register)
                result_was_missing = step.result not in star_registers
                if step.steps == 0:
                    result = list(source)
                else:
                    result = [None] * num_nodes
                    for index in star_fill_indices:
                        result[index] = step.fill
                    for index, origin in star_pairs:
                        result[index] = source[origin]
                star_registers[step.result] = result
                if step.steps > 0:
                    star_registers[step.scratch] = list(result)
                k = step.steps
                if result_was_missing:
                    # apply()'s auto-define broadcast of the first copy lands
                    # on the star ledger only, like the facade.
                    star_stats.record_broadcast()
                # Mesh ledger: copy + k * (route; copy); fills never reach it.
                mesh_stats.record_local(operations=(k + 1) * num_nodes)
                for _ in range(k + 1):
                    mesh_stats.record_broadcast()
                if k > 0:
                    mesh_stats.record_routes(
                        k,
                        messages=k * mesh_messages,
                        label=_route_label(step.dim, step.delta),
                    )
                # Star ledger: the copies run as local ops, the fills as
                # broadcasts, each mesh route as the plan's star unit routes.
                star_stats.record_local(operations=(k + 1) * num_nodes)
                for _ in range(2 * k + 1):
                    star_stats.record_broadcast()
                if k > 0:
                    star_stats.record_routes(
                        k * star_steps,
                        messages=k * star_messages,
                        label=_star_route_label(step.dim, step.delta),
                    )
            else:  # pragma: no cover - op grammar is closed
                raise ProgramError(f"unknown embedded op {kind!r}")


# ------------------------------------------------------------------ programs
@dataclass
class RouteProgram:
    """A compiled, geometry-bound, replayable program.

    Attributes
    ----------
    geometry : tuple
        The geometry key the program was compiled for (mesh sides, or star
        degree for the canonical embedding).
    steps : tuple
        The step sequence the program was compiled from.
    """

    geometry: Tuple
    steps: Tuple[Step, ...]
    _ops: object
    _numeric: Optional[_NumericProgram] = None

    def run(self, machine) -> None:
        """Replay on *machine*.

        Parameters
        ----------
        machine : SIMDMachine
            Target machine; its geometry key must equal :attr:`geometry`.

        Raises
        ------
        ProgramError
            If *machine* was built over a different geometry.
        """
        if _geometry_key(machine) != self.geometry:
            raise ProgramError(
                f"program compiled for {self.geometry!r} cannot run on {machine!r}"
            )
        if self._numeric is not None and type(machine) is MeshMachine:
            if self._numeric.run(machine):
                return
        self._ops.run(machine)


def supports_programs(machine) -> bool:
    """True when *machine* takes the compiled fast path.

    Exactly :class:`MeshMachine` and :class:`EmbeddedMeshMachine`; subclasses
    (e.g. the retained reference machines in the test-suite) keep their
    overridden per-call behaviour by falling back to the facade.

    Parameters
    ----------
    machine : SIMDMachine
        The machine an algorithm is about to run on.

    Returns
    -------
    bool
        Whether :func:`compile_program` may be used for it.
    """
    from repro.simd.embedded import EmbeddedMeshMachine

    return type(machine) in (MeshMachine, EmbeddedMeshMachine)


def _geometry_key(machine) -> Tuple:
    from repro.embedding.mesh_to_star import MeshToStarEmbedding
    from repro.simd.embedded import EmbeddedMeshMachine

    if type(machine) is MeshMachine:
        return ("mesh", machine.sides)
    if type(machine) is EmbeddedMeshMachine:
        if type(machine.embedding) is MeshToStarEmbedding:
            return ("embedded", machine.n)
        return ("custom", id(machine))
    raise ProgramError(
        f"route programs support MeshMachine and EmbeddedMeshMachine, got {type(machine).__name__}"
    )


def _validate_step(mesh, step: Step) -> None:
    if isinstance(step, (Route, Chain)):
        delta = step.delta
        dim = step.dim
        if delta not in (-1, +1):
            raise ProgramError(f"delta must be +1 or -1, got {delta}")
        if not (0 <= dim < mesh.ndim):
            raise ProgramError(f"dim must be in [0, {mesh.ndim - 1}], got {dim}")
    if isinstance(step, ShiftSteps):
        if step.delta not in (-1, +1):
            raise ProgramError(f"delta must be +1 or -1, got {step.delta}")
        if not (0 <= step.dim < mesh.ndim):
            raise ProgramError(f"dim must be in [0, {mesh.ndim - 1}], got {step.dim}")
        if step.steps < 0:
            raise ProgramError(f"steps must be >= 0, got {step.steps}")
    if isinstance(step, Local) and len(step.sources) != step.kernel.num_sources:
        raise ProgramError(
            f"kernel {step.kernel.kind!r} needs {step.kernel.num_sources} sources, "
            f"got {len(step.sources)}"
        )


def _compile_mesh(machine: MeshMachine, steps: Sequence[Step]) -> RouteProgram:
    mesh = machine.mesh
    compiled: List[Tuple] = []
    for step in steps:
        _validate_step(mesh, step)
        if isinstance(step, Fill):
            compiled.append(("fill", step.register, step.value))
        elif isinstance(step, Route):
            moves = _masked_moves(mesh, step.dim, step.delta, step.where)
            label = step.label or _route_label(step.dim, step.delta)
            compiled.append(("route", step.source, step.destination, moves, label))
        elif isinstance(step, Chain):
            pairs, count, messages = _chain_gather(mesh, step)
            label = step.label or _route_label(step.dim, step.delta)
            compiled.append(("chain", step.register, pairs, count, messages, label))
        elif isinstance(step, Local):
            if step.where == MASK_ALL:
                indices = None
                count = mesh.num_nodes
            else:
                indices = mask_indices(mesh, step.where)
                count = len(indices)
            compiled.append(
                ("local", step.destination, step.kernel, step.sources, indices, count)
            )
        elif isinstance(step, ShiftSteps):
            pairs, fill_indices = _shift_gather(mesh, step.dim, step.delta, step.steps)
            messages = len(_dimension_table(mesh, step.dim, step.delta))
            compiled.append(("shift", step, pairs, fill_indices, messages))
        else:
            raise ProgramError(f"unknown program step {step!r}")
    numeric = _NumericCompiler(mesh, steps).compile()
    return RouteProgram(
        geometry=("mesh", mesh.sides),
        steps=tuple(steps),
        _ops=_MeshOps(mesh=mesh, compiled=compiled),
        _numeric=numeric,
    )


def _compile_embedded(machine, steps: Sequence[Step]) -> RouteProgram:
    mesh = machine.mesh
    embedding = machine.embedding
    perm = machine.mesh_to_star_indices()
    star_topology = machine.star_machine.topology
    compiled: List[Tuple] = []

    def star_indices_for(spec) -> Optional[Tuple[int, ...]]:
        if spec == MASK_ALL:
            return None
        return tuple(perm[index] for index in mask_indices(mesh, spec))

    for step in steps:
        _validate_step(mesh, step)
        if isinstance(step, Fill):
            compiled.append(("fill", step.register, step.value))
        elif isinstance(step, Route):
            paper_dim = machine.n - 1 - step.dim
            plan = unit_route_plan_subset(embedding, paper_dim, step.delta, step.where)
            mesh_label = step.label or _route_label(step.dim, step.delta)
            star_label = step.label or _star_route_label(step.dim, step.delta)
            compiled.append(
                ("route", step.source, step.destination, plan, mesh_label, star_label)
            )
        elif isinstance(step, Chain):
            paper_dim = machine.n - 1 - step.dim
            pairs, count, mesh_messages = _chain_gather(mesh, step)
            star_pairs = [(perm[index], perm[origin]) for index, origin in pairs]
            star_count = 0
            star_messages = 0
            for coord in step.coords:
                plan = unit_route_plan_subset(
                    embedding, paper_dim, step.delta, ("eq", step.dim, coord)
                )
                star_count += plan.num_steps
                star_messages += sum(s.num_messages for s in plan.steps)
            mesh_label = step.label or _route_label(step.dim, step.delta)
            star_label = step.label or _star_route_label(step.dim, step.delta)
            compiled.append(
                (
                    "chain",
                    step.register,
                    star_pairs,
                    count,
                    mesh_messages,
                    star_count,
                    star_messages,
                    mesh_label,
                    star_label,
                )
            )
        elif isinstance(step, Local):
            star_idx = star_indices_for(step.where)
            count = (
                mesh.num_nodes if star_idx is None else len(star_idx)
            )
            compiled.append(
                ("local", step.destination, step.kernel, step.sources, star_idx, count)
            )
        elif isinstance(step, ShiftSteps):
            paper_dim = machine.n - 1 - step.dim
            pairs, fill_indices = _shift_gather(mesh, step.dim, step.delta, step.steps)
            star_pairs = [(perm[index], perm[origin]) for index, origin in pairs]
            star_fill = [perm[index] for index in fill_indices]
            plan = unit_route_plan(embedding, paper_dim, step.delta)
            star_messages = sum(s.num_messages for s in plan.steps)
            compiled.append(
                (
                    "shift",
                    step,
                    star_pairs,
                    star_fill,
                    plan.num_paths,
                    plan.num_steps,
                    star_messages,
                )
            )
        else:
            raise ProgramError(f"unknown program step {step!r}")
    return RouteProgram(
        geometry=_geometry_key(machine),
        steps=tuple(steps),
        _ops=_EmbeddedOps(n=machine.n, compiled=compiled),
        _numeric=None,
    )


def compile_program(machine, steps: Sequence[Step]) -> RouteProgram:
    """Compile *steps* for *machine*'s geometry (cached and shared).

    The cache key is ``(machine geometry, step sequence)``; step sequences
    containing unhashable values (e.g. an unhashable fill object) compile
    fresh on every call but still share the per-geometry route/mask/kernel
    artifacts.

    Parameters
    ----------
    machine : MeshMachine or EmbeddedMeshMachine
        The machine whose geometry to compile for (see
        :func:`supports_programs`).
    steps : sequence
        ``Fill | Route | Chain | Local | ShiftSteps`` step specs.

    Returns
    -------
    RouteProgram
        The compiled program; replays with ledgers bit-identical to issuing
        the steps through the per-call facade.
    """
    steps = tuple(steps)
    geometry = _geometry_key(machine)
    cache_key: Optional[Tuple] = None
    if geometry[0] != "custom":
        try:
            cache_key = (geometry, steps)
            cached = _PROGRAM_CACHE.get(cache_key)
        except TypeError:
            cache_key = None
            cached = None
        if cached is not None:
            _PROGRAM_CACHE.move_to_end(cache_key)
            return cached
    if geometry[0] == "mesh":
        program = _compile_mesh(machine, steps)
    else:
        program = _compile_embedded(machine, steps)
    if cache_key is not None:
        _PROGRAM_CACHE[cache_key] = program
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.popitem(last=False)
    return program
