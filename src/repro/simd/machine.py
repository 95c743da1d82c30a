"""The topology-generic SIMD machine.

A :class:`SIMDMachine` owns

* one *processing element* per topology node, each holding a set of named
  registers (plain Python values -- the paper's PEs only need basic
  arithmetic, which the host Python performs);
* a ledger of unit routes / local operations
  (:class:`~repro.simd.trace.RouteStatistics`);
* the two communication primitives of the model:
  :meth:`SIMDMachine.route_moves` executes one unit route given explicit
  ``(source, destination)`` moves (conflict-checked), and
  :meth:`SIMDMachine.route_paths` executes a set of multi-hop paths as a
  sequence of synchronous unit routes (this is how a mesh unit route is
  replayed on the star graph).

Register files are stored *densely*: one Python list per register, indexed by
the node's position in the canonical topology order (`topology.node_index`
order).  The tuple-keyed mappings of the original implementation survive as a
thin facade -- :meth:`read_register` still returns ``{node: value}`` and every
public method still accepts tuple nodes -- but the hot paths
(:meth:`route_indexed` and :meth:`execute_plan`, used by the topology-specific
subclasses) move data with integer gathers only.

Subclasses add the topology-specific "move everybody along dimension j"
helpers (:class:`~repro.simd.star_machine.StarMachine`,
:class:`~repro.simd.mesh_machine.MeshMachine`).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ProgramError, RouteConflictError, SimulationError
from repro.simd.conflicts import UnitRouteStep, check_unit_route_conflicts
from repro.simd.kernels import Kernel, execute_kernel
from repro.simd.masks import Mask, MaskSource
from repro.simd.trace import RouteStatistics
from repro.topology.base import Node, Topology

__all__ = ["SIMDMachine"]

RegisterInit = Union[Mapping[Node, object], Callable[[Node], object], object]


class SIMDMachine:
    """An SIMD multicomputer over an arbitrary topology."""

    def __init__(self, topology: Topology, *, check_conflicts: bool = True):
        self._topology = topology
        self._nodes: List[Node] = list(topology.nodes())
        self._index_of: Dict[Node, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._registers: Dict[str, List[object]] = {}
        self._stats = RouteStatistics()
        self._check_conflicts = check_conflicts

    # ------------------------------------------------------------ properties
    @property
    def topology(self) -> Topology:
        """The interconnection network."""
        return self._topology

    @property
    def num_pes(self) -> int:
        """Number of processing elements."""
        return len(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        """All PE identifiers in canonical topology order."""
        return list(self._nodes)

    @property
    def stats(self) -> RouteStatistics:
        """The unit-route / local-operation ledger."""
        return self._stats

    @property
    def register_names(self) -> List[str]:
        """Names of the currently defined registers."""
        return sorted(self._registers)

    # -------------------------------------------------------------- registers
    def _register(self, name: str) -> List[object]:
        try:
            return self._registers[name]
        except KeyError as exc:
            raise ProgramError(f"register {name!r} is not defined") from exc

    def node_index(self, node: Node) -> int:
        """Dense PE id of *node* (its position in canonical topology order)."""
        node = self._topology.validate_node(node)
        return self._index_of[node]

    def define_register(self, name: str, init: RegisterInit = None) -> None:
        """Create (or overwrite) register *name* on every PE.

        *init* may be a mapping ``node -> value``, a callable ``node -> value``
        or a constant broadcast to every PE (the latter counts as one
        control-unit broadcast in the ledger).
        """
        if isinstance(init, Mapping):
            values = [init.get(node) for node in self._nodes]
        elif callable(init):
            values = [init(node) for node in self._nodes]
        else:
            values = [init] * len(self._nodes)
            self._stats.record_broadcast()
        self._registers[name] = values

    def read_register(self, name: str) -> Dict[Node, object]:
        """A copy of register *name* as ``{node: value}``."""
        return dict(zip(self._nodes, self._register(name)))

    def register_values(self, name: str) -> List[object]:
        """A copy of register *name* as a dense list in node-index order."""
        return list(self._register(name))

    def read_value(self, name: str, node: Node) -> object:
        """The value of register *name* at one PE."""
        register = self._register(name)
        node = self._topology.validate_node(node)
        return register[self._index_of[node]]

    def write_value(self, name: str, node: Node, value: object) -> None:
        """Overwrite the value of register *name* at one PE (host-side poke)."""
        register = self._register(name)
        node = self._topology.validate_node(node)
        register[self._index_of[node]] = value

    # --------------------------------------------------------------- local ops
    def apply(
        self,
        destination: str,
        function: Callable[..., object],
        *sources: str,
        where: MaskSource = None,
    ) -> None:
        """Masked element-wise local operation.

        On every active PE, ``destination := function(*source registers)``.
        The paper's ``A(i) := A(i) + 1, (f(i) = y)`` is
        ``apply("A", lambda a: a + 1, "A", where=predicate)``.
        """
        if destination not in self._registers:
            self.define_register(destination)
        dest = self._register(destination)
        source_registers = [self._register(s) for s in sources]
        count = 0
        if where is None:
            for index in range(len(self._nodes)):
                dest[index] = function(*(reg[index] for reg in source_registers))
            count = len(self._nodes)
        else:
            indices = self._active_indices(where)
            for index in indices:
                dest[index] = function(*(reg[index] for reg in source_registers))
            count = len(indices)
        self._stats.record_local(operations=count)
        self._stats.record_broadcast()

    def _active_indices(self, where: MaskSource) -> Sequence[int]:
        """Dense indices of the PEs selected by *where* (all PEs for None).

        The fast-path twin of ``Mask.coerce(...).is_active`` sweeps: masks
        with a matching topology yield their cached index list, predicates are
        evaluated directly without materialising a tuple-keyed dict.
        """
        if where is None:
            return range(len(self._nodes))
        if isinstance(where, Mask):
            if where.topology == self._topology:
                return where.active_indices()
            # Different topology: preserve the facade's error behaviour
            # (is_active raises MaskError for uncovered nodes).
            mask = Mask.coerce(self._topology, where)
            is_active = mask.is_active
            return [
                index for index, node in enumerate(self._nodes) if is_active(node)
            ]
        if callable(where):
            return [
                index for index, node in enumerate(self._nodes) if where(node)
            ]
        mask = Mask.coerce(self._topology, where)
        flags = mask.dense_flags()
        return [index for index in range(len(self._nodes)) if flags[index]]

    def apply_kernel(
        self,
        destination: str,
        kernel: "Kernel",
        *sources: str,
        where: MaskSource = None,
    ) -> None:
        """Masked elementwise operation through a named :class:`Kernel`.

        The vectorised twin of :meth:`apply`: the kernel runs over the dense
        register lists with no per-PE Python closure (whole-register slice
        operations when unmasked).  The ledger entries are identical to
        :meth:`apply` with the equivalent closure -- one local-operation batch
        counting every *active* PE (whether or not a sentinel-guarded kernel
        changed its value) plus one instruction broadcast.
        """
        if destination not in self._registers:
            self.define_register(destination)
        dest = self._register(destination)
        source_registers = [self._register(s) for s in sources]
        if where is None:
            indices = None
            count = len(self._nodes)
        else:
            indices = self._active_indices(where)
            count = len(indices)
        execute_kernel(kernel, dest, source_registers, indices)
        self._stats.record_local(operations=count)
        self._stats.record_broadcast()

    def copy_register(self, source: str, destination: str, *, where: MaskSource = None) -> None:
        """``destination := source`` on every active PE (a local move, no routing)."""
        self.apply(destination, lambda value: value, source, where=where)

    # ----------------------------------------------------------------- routing
    def route_moves(
        self,
        source_register: str,
        destination_register: str,
        moves: Iterable[Tuple[Node, Node]],
        *,
        label: str = "route",
    ) -> None:
        """Execute one unit route.

        Every ``(sender, receiver)`` pair must be an edge of the topology; the
        value of *source_register* at the sender is written into
        *destination_register* at the receiver.  All transfers happen
        simultaneously (the values are read before any write), exactly like a
        synchronous hardware route.
        """
        moves = [
            (self._topology.validate_node(src), self._topology.validate_node(dst))
            for src, dst in moves
        ]
        for src, dst in moves:
            if not self._topology.has_edge(src, dst):
                raise SimulationError(
                    f"unit route uses ({src!r} -> {dst!r}) which is not a link"
                )
        if self._check_conflicts:
            check_unit_route_conflicts(UnitRouteStep(moves=tuple(moves)))
        index_of = self._index_of
        self.route_indexed(
            source_register,
            destination_register,
            [(index_of[src], index_of[dst]) for src, dst in moves],
            label=label,
            check_conflicts=False,  # already checked with node identities above
        )

    def route_indexed(
        self,
        source_register: str,
        destination_register: str,
        moves: Sequence[Tuple[int, int]],
        *,
        label: str = "route",
        check_conflicts: Optional[bool] = None,
    ) -> None:
        """One unit route given dense ``(sender index, receiver index)`` moves.

        The fast-path twin of :meth:`route_moves`: callers guarantee that every
        move is a topology link (e.g. it came from a generator move table), so
        only the cheap integer conflict check runs.  Stats are recorded
        identically to :meth:`route_moves`.
        """
        if check_conflicts is None:
            check_conflicts = self._check_conflicts
        if check_conflicts:
            senders = bytearray(len(self._nodes))
            receivers = bytearray(len(self._nodes))
            for src, dst in moves:
                if senders[src]:
                    raise RouteConflictError(
                        f"PE {self._nodes[src]!r} transmits twice in one unit route"
                    )
                if receivers[dst]:
                    raise RouteConflictError(
                        f"PE {self._nodes[dst]!r} receives twice in one unit route"
                    )
                senders[src] = 1
                receivers[dst] = 1
        source = self._register(source_register)
        if destination_register not in self._registers:
            self.define_register(destination_register)
        destination = self._register(destination_register)
        payload = [(dst, source[src]) for src, dst in moves]
        for dst, value in payload:
            destination[dst] = value
        self._stats.record_route(messages=len(moves), label=label)

    def route_matching_table(
        self,
        table: Sequence[int],
        source_register: str,
        destination_register: str,
        *,
        where: MaskSource = None,
        label: str = "route",
    ) -> None:
        """One SIMD-A unit route through a validated perfect-matching move table.

        *table* maps every PE index to its partner's index and must be a
        fixed-point-free involution of the PE ids whose pairs are topology
        links -- validated once by the caller (see
        :meth:`repro.simd.cayley_machine.CayleyMachine._generator_table`),
        which is what lets every masked subset skip the per-move conflict check: any
        subset of a perfect matching is a valid unit route.  Unmasked, the
        route is a single whole-register gather (receiver ``i`` hears from
        sender ``table[i]``); ledger entries are identical to routing the
        same moves through :meth:`route_moves`.

        This is the fast path of the Cayley generator routes
        (:meth:`~repro.simd.cayley_machine.CayleyMachine.route_generator`,
        which :class:`~repro.simd.star_machine.StarMachine` inherits), whose
        canonical node order matches the table's rank order.
        """
        if len(table) != len(self._nodes):
            raise SimulationError(
                f"matching table covers {len(table)} PEs but the machine has "
                f"{len(self._nodes)}"
            )
        if where is None:
            source = self._register(source_register)
            if destination_register not in self._registers:
                self.define_register(destination_register)
            destination = self._register(destination_register)
            destination[:] = [source[sender] for sender in table]
            self._stats.record_route(messages=self.num_pes, label=label)
            return
        self.route_indexed(
            source_register,
            destination_register,
            [(index, table[index]) for index in self._active_indices(where)],
            label=label,
            check_conflicts=False,
        )

    def route_paths(
        self,
        source_register: str,
        destination_register: str,
        paths: Mapping[Node, Sequence[Node]],
        *,
        label: str = "path-route",
        scratch_register: str = "__transit__",
    ) -> int:
        """Deliver one message per path, as a sequence of synchronous unit routes.

        ``paths[source]`` is the full node sequence the message injected at
        *source* follows (first element must be *source*).  Hop ``t`` of every
        path executes during unit route ``t``; messages that have already
        arrived simply rest.  Returns the number of unit routes used
        (the length of the longest path).

        Conflict checking applies to every intermediate unit route, which is
        how Lemma 5 is enforced at run time.
        """
        paths = {self._topology.validate_node(k): [
            self._topology.validate_node(p) for p in v
        ] for k, v in paths.items()}
        for source, path in paths.items():
            if not path or path[0] != source:
                raise SimulationError(f"path for {source!r} must start at the source")
        num_steps = max((len(path) for path in paths.values()), default=1) - 1
        if num_steps == 0:
            return 0

        index_of = self._index_of
        index_paths = [[index_of[node] for node in path] for path in paths.values()]

        # Transit values ride in a scratch register so multi-hop forwarding does
        # not clobber the PEs' own source values.
        self._registers[scratch_register] = list(self._register(source_register))
        if destination_register not in self._registers:
            self.define_register(destination_register)

        node_paths = list(paths.values())
        for step in range(num_steps):
            arriving: List[Tuple[int, int]] = []
            continuing: List[Tuple[int, int]] = []
            if self._check_conflicts:
                moves: List[Tuple[Node, Node]] = []
                for path in node_paths:
                    if step + 1 < len(path):
                        moves.append((path[step], path[step + 1]))
                check_unit_route_conflicts(UnitRouteStep(moves=tuple(moves)))
            for path in index_paths:
                if step + 1 < len(path):
                    move = (path[step], path[step + 1])
                    if step + 2 == len(path):
                        arriving.append(move)
                    else:
                        continuing.append(move)
            transit = self._register(scratch_register)
            destination = self._register(destination_register)
            staged_final = [(dst, transit[src]) for src, dst in arriving]
            staged_transit = [(dst, transit[src]) for src, dst in continuing]
            for dst, value in staged_final:
                destination[dst] = value
            for dst, value in staged_transit:
                transit[dst] = value
            self._stats.record_route(
                messages=len(arriving) + len(continuing), label=label
            )
        del self._registers[scratch_register]
        return num_steps

    def execute_plan(
        self,
        source_register: str,
        destination_register: str,
        plan: "object",
        *,
        label: str = "path-route",
    ) -> int:
        """Replay a precompiled, already-validated unit-route plan.

        *plan* is a :class:`repro.simd.plans.UnitRoutePlan` (or anything with
        the same ``steps`` attribute): conflict freedom and link validity were
        checked once when the plan was built, so the replay is pure integer
        gathers.  Semantics and ledger entries are identical to
        :meth:`route_paths` on the same paths.
        """
        steps = plan.steps
        if not steps:
            return 0
        source = self._register(source_register)
        if destination_register not in self._registers:
            self.define_register(destination_register)
        destination = self._register(destination_register)
        transit = list(source)
        total_messages = 0
        for step in steps:
            staged_final = [(dst, transit[src]) for src, dst in step.arriving]
            staged_transit = [(dst, transit[src]) for src, dst in step.continuing]
            for dst, value in staged_final:
                destination[dst] = value
            for dst, value in staged_transit:
                transit[dst] = value
            total_messages += step.num_messages
        # One batched ledger update for the whole replay (snapshot-identical
        # to per-step record_route calls: every step shares the label).
        self._stats.record_routes(len(steps), messages=total_messages, label=label)
        return len(steps)

    # --------------------------------------------------------------- utilities
    def reset_stats(self) -> None:
        """Zero the ledger (register contents are preserved)."""
        self._stats.reset()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(topology={self._topology!r}, "
            f"pes={self.num_pes}, registers={self.register_names})"
        )
