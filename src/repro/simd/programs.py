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

into per-step precomputed gather indices, kernel index lists and ledger
entries, cached per ``(machine geometry, step sequence)`` and shared by every
machine of the same geometry.  Masks are *specs* (:mod:`repro.simd.masks`), so
the whole program is a hashable value.

One compile path
----------------
Both machines compile through the same function into ops over the target
machine's *own* register file.  On :class:`~repro.simd.mesh_machine.MeshMachine`
that is the mesh's; on :class:`~repro.simd.embedded.EmbeddedMeshMachine` it is
the host star machine's, and every mesh index is relabelled through
``mesh_to_star_indices()``.  An embedded route is then the gather
``perm[src] -> perm[dst]``, which is the data effect of the conflict-free
Lemma-2 plan (:meth:`~repro.simd.machine.SIMDMachine.execute_plan` reads from a
transit copy).  Each op carries its ledger entries as data: the mesh-level
entries, plus on the embedded machine the plan's star unit routes, messages
and ``mesh-dim...`` labels.  Fills and the auto-define broadcasts of
``define_register`` / ``apply`` land on the ledger of the machine that owns
the register file, as in both facades.  ``RouteProgram.run(machine)``
therefore leaves registers and ledgers **bit identical** to issuing the same
steps through the per-call facade (both ledgers on the embedded machine,
labels included).

Replay engines
--------------
A program replays on one of two engines, on either machine, and both read
the ledger entries computed at compile time:

* the **numeric engine** (NumPy) when every register the program touches is
  a flat vector of one numeric kind (all ints or all floats, constants
  included).  Sentinel semantics are resolved at compile time by a static
  validity dataflow: the set of PEs that actually received a message in each
  staging register is a pure function of the program, so masked kernels
  shrink to precomputed "active and received" index arrays and sentinels
  never materialise;
* the **object engine** otherwise: it moves Python objects through the dense
  register lists with precomputed index lists -- any payload.  Its ops are
  built on the first replay the numeric engine declines and then kept, so a
  program the numeric engine always takes never holds them.

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
from repro.simd.plans import unit_route_plan_subset

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
    """``register := value`` on every PE via one control-unit broadcast.

    *value* is a constant of any type (a callable or a mapping is stored as
    is, never used as a per-PE initialiser).
    """

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
# index arrays, all over mesh PE indices.  Keyed by the Mesh object itself
# (value-hashable), so a native mesh and the embedded machine of the same
# shape share them.
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


def _masked_moves(mesh, dim: int, delta: int, spec: Tuple):
    """``(senders, receivers)`` of a unit route whose senders *spec* selects (cached)."""
    store = _artifacts(mesh)
    key = ("moves", dim, delta, spec)
    moves = store.get(key)
    if moves is None:
        moves = mesh.unit_route_moves(dim, delta)
        if spec != MASK_ALL:
            keep = _np.asarray(mask_flags(mesh, spec), dtype=bool)[moves[0]]
            moves = (moves[0][keep], moves[1][keep])
        store[key] = moves
    return moves


def _chain_gather(mesh, chain: Chain) -> List[Tuple[int, int]]:
    """Fused data effect of a :class:`Chain`: changed ``(index, source index)`` pairs.

    Computed by composing the per-coordinate routes symbolically (reads
    staged before writes, like the hardware), so the result is exact for any
    coordinate sequence.
    """
    store = _artifacts(mesh)
    key = ("chain", chain.dim, chain.delta, chain.coords)
    pairs = store.get(key)
    if pairs is None:
        identity = _np.arange(mesh.num_nodes)
        state = identity.copy()
        for coord in chain.coords:
            src, dst = _masked_moves(mesh, chain.dim, chain.delta, ("eq", chain.dim, coord))
            state[dst] = state[src]
        changed = _np.flatnonzero(state != identity)
        pairs = list(zip(changed.tolist(), state[changed].tolist()))
        store[key] = pairs
    return pairs


def _shift_gather(mesh, dim: int, delta: int, steps: int) -> List[Tuple[int, int]]:
    """Fused data effect of a ``steps``-fold shift: ``(index, source index)`` pairs.

    Every index missing from the pairs receives the boundary fill.
    """
    store = _artifacts(mesh)
    key = ("shift", dim, delta, steps)
    pairs = store.get(key)
    if pairs is None:
        side = mesh.sides[dim]
        pairs = []
        stride = 1
        for s in mesh.sides[dim + 1 :]:
            stride *= s
        for index in range(mesh.num_nodes):
            coord = (index // stride) % side
            origin = coord - steps * delta
            if 0 <= origin < side:
                pairs.append((index, index + (origin - coord) * stride))
        store[key] = pairs
    return pairs


def _route_label(dim: int, delta: int) -> str:
    return f"dim{dim}{'+' if delta > 0 else '-'}"


def _star_route_label(dim: int, delta: int) -> str:
    return f"mesh-dim{dim}{'+' if delta > 0 else '-'}"


class _Relabel:
    """Mesh PE index -> index into the target machine's register file.

    The identity on :class:`MeshMachine`; on the embedded machine the star
    rank hosting each mesh PE (``mesh_to_star_indices()``).  Relabelled
    artifacts are memoised per compile, so an artifact that several steps of
    one program share is mapped once.
    """

    def __init__(self, perm: Optional[Sequence[int]]):
        self.perm = perm
        self.array = None if perm is None else _np.asarray(perm, dtype=_np.intp)
        self._memo: Dict[int, Tuple] = {}

    def __call__(self, value):
        """Map an index array, an index sequence or a sequence of index pairs."""
        if self.perm is None or value is None:
            return value
        hit = self._memo.get(id(value))
        if hit is None:
            perm = self.perm
            if isinstance(value, _np.ndarray):
                mapped = self.array[value]
            elif value and isinstance(value[0], tuple):
                mapped = [(perm[a], perm[b]) for a, b in value]
            else:
                mapped = [perm[index] for index in value]
            # Keep *value* alive so its id cannot be reused within the compile.
            hit = self._memo[id(value)] = (value, mapped)
        return hit[1]


# ------------------------------------------------------------------ ledgers
# A ledger entry is ``(slot, unit routes, messages, label, local operations,
# broadcasts)``.  Slot 0 is the ledger of the machine that owns the register
# file (the mesh machine, or the embedded machine's star machine); slot 1 is
# the embedded machine's mesh-level ledger.
_Charge = Tuple[int, int, int, Optional[str], int, int]


def _charge(ledgers: Tuple, charges: Sequence[_Charge]) -> None:
    for slot, routes, messages, label, local, broadcasts in charges:
        ledgers[slot].record_charge(routes, messages, label, local, broadcasts)


def _register_file(machine) -> Tuple:
    """``(register-file machine, ledgers by slot)`` of a program target."""
    if type(machine) is MeshMachine:
        return machine, (machine._stats,)
    star = machine._star_machine
    return star, (star._stats, machine._mesh_stats)


# ------------------------------------------------------------- numeric engine
# Validity tokens describe, at compile time, which PEs of a register hold real
# values (vs. a fill sentinel).  Tokens are hashable so the materialised index
# arrays are cached per geometry.
_V_ALL = ("vall",)
_V_NONE = ("vnone",)

_INT64 = _np.iinfo(_np.int64)


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

    Works over mesh PE indices (artifacts shared per mesh geometry) and emits
    every index array through *relabel*, so the ops address the target
    machine's register file.  Returns None (via ``bail``) whenever a step
    falls outside the supported fragment; the program then always uses the
    object engine.
    """

    def __init__(self, mesh, steps: Sequence[Step], charges, relabel: _Relabel):
        self.mesh = mesh
        self.steps = steps
        self.charges = charges
        self.relabel = relabel
        self.ops: List[Tuple] = []
        self.valid: Dict[str, Tuple] = {}
        self.filler: Dict[str, object] = {}
        self.written: List[str] = []
        # Registers whose pre-program contents the replay must load from the
        # machine (reads, and writes that do not fully overwrite).
        self.loads: List[str] = []
        # Registers fully materialised by an earlier program op.
        self.created: set = set()
        # Numeric kinds ("i", "f") of the program's own constants.
        self.constant_kinds: set = set()
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
                cached = _np.sort(_masked_moves(self.mesh, dim, delta, spec)[1])
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
        return self.relabel(cached)

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

    def _constant(self, value) -> None:
        if isinstance(value, float):
            self.constant_kinds.add("f")
        elif _INT64.min <= value <= _INT64.max:
            self.constant_kinds.add("i")
        else:
            self.bail()  # an int64 register cannot hold it

    def compile(self):
        for step, cost in zip(self.steps, self.charges):
            if isinstance(step, Fill):
                self._compile_fill(step)
            elif isinstance(step, Route):
                self._compile_route(step, cost)
            elif isinstance(step, Chain):
                self._compile_chain(step, cost)
            elif isinstance(step, Local):
                self._compile_local(step, cost)
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
                writeback.append((register, self.relabel(invalid), self.filler[register]))
        return _NumericProgram(
            num_nodes=self.mesh.num_nodes,
            ops=self.ops,
            loads=list(self.loads),
            writeback=writeback,
            constant_kinds=frozenset(self.constant_kinds),
        )

    def _compile_fill(self, step: Fill) -> None:
        self._note_write(step.register, full=True)
        if _is_number(step.value):
            self._constant(step.value)
            self.valid[step.register] = _V_ALL
            self.ops.append(("fill", step.register, step.value, ()))
        else:
            self.valid[step.register] = _V_NONE
            self.filler[step.register] = step.value
            self.ops.append(("alloc", step.register, ()))

    def _compile_route(self, step: Route, cost) -> None:
        self._need(step.source)
        if self._validity(step.source) != _V_ALL:
            return self.bail()
        src, dst = map(self.relabel, _masked_moves(self.mesh, step.dim, step.delta, step.where))
        receivers = ("vrecv", step.dim, step.delta, step.where)
        self._note_write(step.destination, full=False)
        self.valid[step.destination] = _v_or(self._validity(step.destination), receivers)
        self.ops.append(("route", step.source, step.destination, src, dst, cost))

    def _compile_chain(self, step: Chain, cost) -> None:
        self._need(step.register)
        if self._validity(step.register) != _V_ALL:
            return self.bail()
        pairs = _chain_gather(self.mesh, step)
        dst = _np.fromiter((i for i, _j in pairs), dtype=_np.intp, count=len(pairs))
        src = _np.fromiter((j for _i, j in pairs), dtype=_np.intp, count=len(pairs))
        self._note_write(step.register, full=False)
        self.ops.append(("chain", step.register, self.relabel(src), self.relabel(dst), cost))

    def _compile_local(self, step: Local, cost) -> None:
        kernel = step.kernel
        kind = kernel.kind
        if kind == "copy":
            source = step.sources[0]
            self._need(source)
            if step.where != MASK_ALL or self._validity(source) != _V_ALL:
                return self.bail()
            self._note_write(step.destination, full=True)
            self.valid[step.destination] = _V_ALL
            self.ops.append(("copy", step.destination, source, cost))
            return
        if kind == "const":
            (value,) = kernel.params
            if _is_number(value):
                self._constant(value)
                if step.where == MASK_ALL:
                    self._note_write(step.destination, full=True)
                    self.valid[step.destination] = _V_ALL
                    self.ops.append(("const_full", step.destination, value, cost))
                else:
                    if self._validity(step.destination) != _V_ALL:
                        return self.bail()
                    self._note_write(step.destination, full=False)
                    eff = self._effective(step.where, _V_ALL)
                    self.ops.append(("const_at", step.destination, eff, value, cost))
                return
            if step.where == MASK_ALL:
                self._note_write(step.destination, full=True)
                self.valid[step.destination] = _V_NONE
                self.filler[step.destination] = value
                self.ops.append(("alloc_count", step.destination, cost))
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
            self.ops.append((op, step.destination, incoming, eff, cost))
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
            self.ops.append(("replace_at", step.destination, incoming, eff, cost))
            return
        return self.bail()


@dataclass
class _NumericProgram:
    """The NumPy replay of a compiled program."""

    num_nodes: int
    ops: List[Tuple]
    loads: List[str]
    writeback: List[Tuple]
    constant_kinds: frozenset

    def run(self, target, ledgers: Tuple) -> bool:
        """Replay on *target*'s register file; returns False if the registers disqualify.

        The eligibility checks (registers exist and hold one flat numeric
        vector each, all of one kind with the program's constants, so no
        value is cast) all happen before the first ledger entry, so a False
        return leaves the machine untouched for the object engine.
        """
        registers = target._registers
        arrays: Dict[str, object] = {}
        kinds = set(self.constant_kinds)
        for name in self.loads:
            values = registers.get(name)
            if values is None:
                return False
            # One look at the first PE turns object payloads away before
            # NumPy converts a whole register of them.
            first = values[0]
            if isinstance(first, bool) or not isinstance(first, (int, float, _np.number)):
                return False
            array = _np.asarray(values)
            if array.ndim != 1 or array.dtype.kind not in "if":
                return False
            arrays[name] = array
            kinds.add(array.dtype.kind)
        if len(kinds) > 1:
            return False
        dtype = _np.float64 if "f" in kinds else _np.int64
        for name, array in arrays.items():
            arrays[name] = array.astype(dtype, copy=True)
        n = self.num_nodes
        owner = ledgers[0]
        # apply() auto-defines a missing destination register (one extra
        # broadcast on the owner's ledger); mirror that for registers the
        # machine does not have yet.
        defined = set(registers)

        def define(name: str) -> None:
            if name not in defined:
                defined.add(name)
                owner.record_broadcast()

        for op in self.ops:
            kind = op[0]
            if kind == "fill":
                _, name, value, _cost = op
                arrays[name] = _np.full(n, value, dtype=dtype)
                defined.add(name)
                owner.record_broadcast()
            elif kind == "alloc":
                _, name, _cost = op
                arrays[name] = _np.zeros(n, dtype=dtype)
                defined.add(name)
                owner.record_broadcast()
            elif kind == "alloc_count":
                _, name, _cost = op
                arrays[name] = _np.zeros(n, dtype=dtype)
                define(name)
            elif kind == "route":
                _, source, destination, src, dst, _cost = op
                arrays[destination][dst] = arrays[source][src]
            elif kind == "chain":
                _, name, src, dst, _cost = op
                array = arrays[name]
                array[dst] = array[src]
            elif kind == "copy":
                _, destination, source, _cost = op
                arrays[destination] = arrays[source].copy()
                define(destination)
            elif kind == "const_full":
                _, name, value, _cost = op
                arrays[name] = _np.full(n, value, dtype=dtype)
                define(name)
            elif kind == "const_at":
                _, name, eff, value, _cost = op
                arrays[name][eff] = value
            elif kind == "min_at":
                _, name, incoming, eff, _cost = op
                array = arrays[name]
                array[eff] = _np.minimum(array[eff], arrays[incoming][eff])
            elif kind == "max_at":
                _, name, incoming, eff, _cost = op
                array = arrays[name]
                array[eff] = _np.maximum(array[eff], arrays[incoming][eff])
            elif kind == "replace_at":
                _, name, incoming, eff, _cost = op
                arrays[name][eff] = arrays[incoming][eff]
            else:  # pragma: no cover - op grammar is closed
                raise ProgramError(f"unknown numeric op {kind!r}")
            _charge(ledgers, op[-1])

        for name, invalid, filler in self.writeback:
            values = arrays[name].tolist()
            if invalid is not None:
                for index in invalid.tolist():
                    values[index] = filler
            registers[name] = values
        return True


# ------------------------------------------------------------- object engine
def _replay_objects(ops: List[Tuple], target, ledgers: Tuple) -> None:
    """Replay *ops* on *target*'s register file with Python objects (any payload)."""
    registers = target._registers
    for op in ops:
        kind = op[0]
        if kind == "fill":
            # A constant broadcast, like the numeric engine's: the value is
            # never an initialiser, whatever its type.
            _, register, value, charges = op
            registers[register] = [value] * target.num_pes
            ledgers[0].record_broadcast()
        elif kind == "route":
            _, source, destination, senders, receivers, charges = op
            values = target._register(source)
            if destination not in registers:
                target.define_register(destination)
            dest = registers[destination]
            payload = [values[src] for src in senders]
            for dst, value in zip(receivers, payload):
                dest[dst] = value
        elif kind == "chain":
            _, register, pairs, charges = op
            values = target._register(register)
            updates = [(index, values[origin]) for index, origin in pairs]
            for index, value in updates:
                values[index] = value
        elif kind == "local":
            _, destination, kernel, sources, indices, charges = op
            if destination not in registers:
                target.define_register(destination)
            execute_kernel(
                kernel,
                registers[destination],
                [target._register(name) for name in sources],
                indices,
            )
        elif kind == "shift":
            _, step, pairs, charges = op
            source = target._register(step.register)
            if step.result not in registers:
                # apply()'s auto-define broadcast of the first copy.
                ledgers[0].record_broadcast()
            if step.steps == 0:
                result = list(source)
            else:
                result = [step.fill] * len(source)
                for index, origin in pairs:
                    result[index] = source[origin]
            registers[step.result] = result
            if step.steps > 0:
                registers[step.scratch] = list(result)
        else:  # pragma: no cover - op grammar is closed
            raise ProgramError(f"unknown program op {kind!r}")
        _charge(ledgers, charges)


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
    _charges: List[Tuple[_Charge, ...]]
    _numeric: Optional[_NumericProgram] = None
    #: The object engine's ops, built on the first replay the numeric engine
    #: declines.
    _ops: Optional[List[Tuple]] = None

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
        target, ledgers = _register_file(machine)
        if self._numeric is None or not self._numeric.run(target, ledgers):
            if self._ops is None:
                self._ops = _object_ops(machine, self.steps, self._charges)
            _replay_objects(self._ops, target, ledgers)


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


def _compile(machine, geometry: Tuple, steps: Tuple[Step, ...]) -> RouteProgram:
    """Compile *steps* into ops over *machine*'s own register file."""
    mesh = machine.mesh
    num_nodes = mesh.num_nodes
    embedded = geometry[0] != "mesh"
    relabel = _Relabel(machine.mesh_to_star_indices() if embedded else None)
    levels = (0, 1) if embedded else (0,)

    def route_ledger(dim, delta, spec, label):
        """``(slot, unit routes, messages, label)`` of one masked mesh unit route."""
        mesh_label = label or _route_label(dim, delta)
        if not embedded:
            return [(0, 1, len(_masked_moves(mesh, dim, delta, spec)[0]), mesh_label)]
        plan = unit_route_plan_subset(machine.embedding, machine.n - 1 - dim, delta, spec)
        star_messages = sum(step.num_messages for step in plan.steps)
        star_label = label or _star_route_label(dim, delta)
        return [
            (0, plan.num_steps, star_messages, star_label),
            (1, 1, plan.num_paths, mesh_label),
        ]

    charges: List[Tuple[_Charge, ...]] = []
    distinct: Dict[Tuple, Tuple] = {}
    for step in steps:
        _validate_step(mesh, step)
        if isinstance(step, Fill):
            cost: Tuple[_Charge, ...] = ()
        elif isinstance(step, Route):
            entries = route_ledger(step.dim, step.delta, step.where, step.label)
            cost = tuple((slot, r, m, label, 0, 0) for slot, r, m, label in entries)
        elif isinstance(step, Chain):
            totals: Dict[int, Tuple] = {}
            for coord in step.coords:
                spec = ("eq", step.dim, coord)
                for slot, r, m, label in route_ledger(step.dim, step.delta, spec, step.label):
                    routes, messages, _ = totals.get(slot, (0, 0, label))
                    totals[slot] = (routes + r, messages + m, label)
            cost = tuple((slot, r, m, label, 0, 0) for slot, (r, m, label) in totals.items())
        elif isinstance(step, Local):
            count = num_nodes if step.where == MASK_ALL else len(mask_indices(mesh, step.where))
            cost = tuple((slot, 0, 0, None, count, 1) for slot in levels)
        elif isinstance(step, ShiftSteps):
            # copy; (fill; route; copy) * k: every level records the k routes,
            # the k + 1 copies and their broadcasts; the k fills are defines,
            # so their broadcasts land on the owner's ledger only.
            k = step.steps
            cost = tuple(
                (slot, k * r, k * m, label, (k + 1) * num_nodes, k + 1 + (k if slot == 0 else 0))
                for slot, r, m, label in route_ledger(step.dim, step.delta, MASK_ALL, None)
            )
        else:
            raise ProgramError(f"unknown program step {step!r}")
        # Repeated steps (every phase of a sort) share one ledger tuple.
        charges.append(distinct.setdefault(cost, cost))
    return RouteProgram(
        geometry=geometry,
        steps=steps,
        _charges=charges,
        _numeric=_NumericCompiler(mesh, steps, charges, relabel).compile(),
    )


def _object_ops(machine, steps: Tuple[Step, ...], charges) -> List[Tuple]:
    """The object engine's ops: each step's data effect on *machine*'s register file.

    Every op ends with its step's ledger entries from *charges*.  Any machine
    of the program's geometry gives the same ops: canonical embeddings of one
    degree share ``mesh_to_star_indices()``.
    """
    mesh = machine.mesh
    relabel = _Relabel(None if type(machine) is MeshMachine else machine.mesh_to_star_indices())
    ops: List[Tuple] = []
    for step, cost in zip(steps, charges):
        if isinstance(step, Fill):
            op: Tuple = ("fill", step.register, step.value)
        elif isinstance(step, Route):
            src, dst = _masked_moves(mesh, step.dim, step.delta, step.where)
            senders, receivers = relabel(src).tolist(), relabel(dst).tolist()
            op = ("route", step.source, step.destination, senders, receivers)
        elif isinstance(step, Chain):
            op = ("chain", step.register, relabel(_chain_gather(mesh, step)))
        elif isinstance(step, Local):
            indices = None if step.where == MASK_ALL else mask_indices(mesh, step.where)
            op = ("local", step.destination, step.kernel, step.sources, relabel(indices))
        else:
            pairs = _shift_gather(mesh, step.dim, step.delta, step.steps)
            op = ("shift", step, relabel(pairs))
        ops.append(op + (cost,))
    return ops


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
    program = _compile(machine, geometry, steps)
    if cache_key is not None:
        _PROGRAM_CACHE[cache_key] = program
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.popitem(last=False)
    return program
