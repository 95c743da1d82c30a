"""Mesh programming interface executed on a star graph (Theorem 6 in code).

:class:`EmbeddedMeshMachine` exposes the same programming surface as
:class:`~repro.simd.mesh_machine.MeshMachine` -- registers indexed by mesh
coordinates, masked local operations, and the SIMD-A mesh unit route
:meth:`EmbeddedMeshMachine.route_dimension` -- but owns no mesh hardware.
Instead it drives a :class:`~repro.simd.star_machine.StarMachine`: every mesh
PE lives on the star PE the paper's embedding assigns to it (expansion 1, so
every star PE hosts exactly one mesh PE), local operations are executed in
place, and every mesh unit route is replayed as the set of canonical Lemma-2
paths for that dimension, executed in at most three star unit routes.

Every distinct ``(dimension, delta)`` unit route is compiled once into a
rank-indexed :class:`~repro.simd.plans.UnitRoutePlan`: the canonical paths are
built, conflict-checked hop by hop (the dynamic Lemma-5 verification -- a
conflict would raise :class:`repro.exceptions.RouteConflictError`), and
converted to dense ``(sender rank, receiver rank)`` steps.  Replaying the
route is then a handful of integer gathers through the star machine's dense
register file, shared by every machine of the same degree.

Two ledgers are kept: :attr:`EmbeddedMeshMachine.stats` counts *mesh-level*
unit routes (what the guest algorithm thinks it spent) and
:attr:`EmbeddedMeshMachine.star_stats` counts the *star-level* unit routes
actually executed; Theorem 6 asserts ``star <= 3 * mesh``.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.exceptions import InvalidParameterError
from repro.simd.kernels import Kernel
from repro.simd.masks import Mask, MaskSource
from repro.simd.plans import UnitRoutePlan, unit_route_plan, unit_route_plan_subset
from repro.simd.star_machine import StarMachine
from repro.simd.trace import RouteStatistics
from repro.topology.base import Node
from repro.topology.mesh import Mesh
from repro.utils.validation import check_positive_int

__all__ = ["EmbeddedMeshMachine"]

RegisterInit = Union[Mapping[Node, object], Callable[[Node], object], object]


class EmbeddedMeshMachine:
    """A mesh machine simulated on a star machine through the paper's embedding."""

    def __init__(
        self,
        n: int,
        *,
        embedding: Optional[MeshToStarEmbedding] = None,
        check_conflicts: bool = True,
    ):
        check_positive_int(n, "n", minimum=2)
        self._embedding = embedding if embedding is not None else MeshToStarEmbedding(n)
        if self._embedding.n != n:
            raise InvalidParameterError(
                f"embedding degree {self._embedding.n} does not match n={n}"
            )
        self._star_machine = StarMachine(n, check_conflicts=check_conflicts)
        self._mesh_stats = RouteStatistics()
        # Vertex map and its inverse, materialised once (both are bijections).
        self._to_star: Dict[Node, Node] = self._embedding.vertex_images()
        self._to_mesh: Dict[Node, Node] = {v: k for k, v in self._to_star.items()}
        self._star_index_of_mesh_index: Optional[list] = None
        self._mask_translations: Dict[tuple, Mask] = {}

    # ------------------------------------------------------------ properties
    @property
    def embedding(self) -> MeshToStarEmbedding:
        """The mesh-to-star embedding in use."""
        return self._embedding

    @property
    def mesh(self) -> Mesh:
        """The guest mesh ``D_n`` the programs are written against."""
        return self._embedding.mesh

    @property
    def sides(self) -> Tuple[int, ...]:
        """Mesh side lengths."""
        return self.mesh.sides

    @property
    def star_machine(self) -> StarMachine:
        """The host star machine actually executing the program."""
        return self._star_machine

    @property
    def n(self) -> int:
        """Degree of the star graph."""
        return self._embedding.n

    @property
    def num_pes(self) -> int:
        """Number of (mesh) processing elements."""
        return self.mesh.num_nodes

    @property
    def nodes(self) -> list:
        """All mesh PE identifiers in canonical order."""
        return list(self.mesh.nodes())

    @property
    def stats(self) -> RouteStatistics:
        """Mesh-level ledger (what the guest algorithm spends)."""
        return self._mesh_stats

    @property
    def star_stats(self) -> RouteStatistics:
        """Star-level ledger (unit routes actually executed on ``S_n``)."""
        return self._star_machine.stats

    # -------------------------------------------------------------- registers
    def define_register(self, name: str, init: RegisterInit = None) -> None:
        """Create register *name*, initialised per mesh node (see :class:`SIMDMachine`)."""
        if isinstance(init, Mapping):
            star_init = {self._to_star[self.mesh.validate_node(k)]: v for k, v in init.items()}
            self._star_machine.define_register(name, star_init)
        elif callable(init):
            self._star_machine.define_register(
                name, lambda star_node: init(self._to_mesh[star_node])
            )
        else:
            self._star_machine.define_register(name, init)

    def read_register(self, name: str) -> Dict[Node, object]:
        """Register contents keyed by *mesh* node."""
        star_values = self._star_machine.read_register(name)
        return {self._to_mesh[star_node]: value for star_node, value in star_values.items()}

    def read_value(self, name: str, mesh_node: Node) -> object:
        """Value of register *name* at one mesh PE."""
        mesh_node = self.mesh.validate_node(mesh_node)
        return self._star_machine.read_value(name, self._to_star[mesh_node])

    def write_value(self, name: str, mesh_node: Node, value: object) -> None:
        """Host-side poke of one mesh PE's register."""
        mesh_node = self.mesh.validate_node(mesh_node)
        self._star_machine.write_value(name, self._to_star[mesh_node], value)

    @property
    def register_names(self) -> list:
        """Names of the currently defined registers."""
        return self._star_machine.register_names

    # --------------------------------------------------------------- local ops
    def mesh_to_star_indices(self) -> list:
        """Dense star rank hosting each mesh PE, in canonical mesh node order.

        The permutation conjugating mesh-indexed data to the star machine's
        rank-indexed register file; computed once per machine and shared with
        the compiled route programs (:mod:`repro.simd.programs`).
        """
        if self._star_index_of_mesh_index is None:
            from repro.permutations.ranking import ranks_of

            images = [self._to_star[node] for node in self.mesh.nodes()]
            ranks = ranks_of(images)
            self._star_index_of_mesh_index = (
                ranks.tolist() if hasattr(ranks, "tolist") else list(ranks)
            )
        return self._star_index_of_mesh_index

    def _translate_mask(self, where: MaskSource) -> MaskSource:
        if where is None:
            return None
        if isinstance(where, Mask):
            if where.topology == self.mesh:
                # Conjugate the mesh-level mask onto the star PEs hosting the
                # active mesh PEs (cached per spec key for named masks).
                key = where.key
                if key is not None:
                    cached = self._mask_translations.get(key)
                    if cached is not None:
                        return cached
                mesh_flags = where.dense_flags()
                star_flags = [False] * len(mesh_flags)
                for mesh_index, star_index in enumerate(self.mesh_to_star_indices()):
                    star_flags[star_index] = mesh_flags[mesh_index]
                star_mask = Mask.from_flags(self._star_machine.topology, star_flags)
                if key is not None:
                    self._mask_translations[key] = star_mask
                return star_mask
            return where
        if callable(where):
            return lambda star_node: where(self._to_mesh[star_node])
        # iterable of mesh nodes
        return [self._to_star[self.mesh.validate_node(node)] for node in where]

    def apply(
        self,
        destination: str,
        function: Callable[..., object],
        *sources: str,
        where: MaskSource = None,
    ) -> None:
        """Masked element-wise local operation on every active mesh PE."""
        before = self._star_machine.stats.local_operations
        self._star_machine.apply(
            destination, function, *sources, where=self._translate_mask(where)
        )
        executed = self._star_machine.stats.local_operations - before
        self._mesh_stats.record_local(operations=executed)
        self._mesh_stats.record_broadcast()

    def apply_kernel(
        self,
        destination: str,
        kernel: Kernel,
        *sources: str,
        where: MaskSource = None,
    ) -> None:
        """Masked elementwise operation through a named kernel (see :meth:`SIMDMachine.apply_kernel`)."""
        before = self._star_machine.stats.local_operations
        self._star_machine.apply_kernel(
            destination, kernel, *sources, where=self._translate_mask(where)
        )
        executed = self._star_machine.stats.local_operations - before
        self._mesh_stats.record_local(operations=executed)
        self._mesh_stats.record_broadcast()

    def copy_register(self, source: str, destination: str, *, where: MaskSource = None) -> None:
        """``destination := source`` on every active mesh PE."""
        self.apply(destination, lambda value: value, source, where=where)

    # ----------------------------------------------------------------- routing
    def _plan_for(self, paper_dim: int, delta: int) -> UnitRoutePlan:
        """The precompiled, conflict-validated replay plan for one unit route.

        Plans are cached per ``(n, dimension, delta)`` at module level
        (:func:`repro.simd.plans.unit_route_plan`), so every machine of the
        same degree shares one validation pass per routed dimension.
        """
        return unit_route_plan(self._embedding, paper_dim, delta)

    def route_dimension(
        self,
        source_register: str,
        destination_register: str,
        dim: int,
        delta: int,
        *,
        where: MaskSource = None,
        label: Optional[str] = None,
    ) -> int:
        """One mesh unit route, replayed as star unit routes.

        Parameters mirror :meth:`repro.simd.mesh_machine.MeshMachine.route_dimension`
        (*dim* is the tuple dimension index).  Returns the number of star unit
        routes used (1 or 3), which Theorem 6 bounds by 3.

        The replay executes the cached rank-indexed plan: conflict checking
        (Lemma 5) happened once when the plan was built, so each call is a
        sequence of dense gathers through the star machine's register file.
        """
        if delta not in (-1, +1):
            raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
        if not (0 <= dim < self.mesh.ndim):
            raise InvalidParameterError(
                f"dim must be in [0, {self.mesh.ndim - 1}], got {dim}"
            )
        paper_dim = self.n - 1 - dim
        plan = self._plan_for(paper_dim, delta)

        if where is not None:
            if isinstance(where, Mask) and where.key is not None and where.topology == self.mesh:
                # Spec-keyed masks replay a module-cached subset plan shared
                # by every machine of this degree.
                plan = unit_route_plan_subset(self._embedding, paper_dim, delta, where.key)
            else:
                if isinstance(where, Mask):
                    if where.topology == self.mesh:
                        flags = where.dense_flags()
                        node_index = self.mesh.node_index
                        active = lambda node: flags[node_index(node)]  # noqa: E731
                    else:
                        active = Mask.coerce(self.mesh, where).is_active
                elif callable(where):
                    active = where
                else:
                    selected = {self.mesh.validate_node(node) for node in where}
                    active = lambda node: node in selected  # noqa: E731
                plan = plan.subset(source for source in plan.sources if active(source))

        used = self._star_machine.execute_plan(
            source_register,
            destination_register,
            plan,
            label=label or f"mesh-dim{dim}{'+' if delta > 0 else '-'}",
        )
        self._mesh_stats.record_route(
            messages=plan.num_paths,
            label=label or f"dim{dim}{'+' if delta > 0 else '-'}",
        )
        return used

    def route_paper_dimension(
        self,
        source_register: str,
        destination_register: str,
        paper_dim: int,
        delta: int,
        *,
        where: MaskSource = None,
    ) -> int:
        """Same as :meth:`route_dimension` with the paper's 1-based dimension index."""
        dim = self.mesh.coordinate_of_dimension(paper_dim)
        return self.route_dimension(
            source_register, destination_register, dim, delta, where=where
        )

    # --------------------------------------------------------------- utilities
    def reset_stats(self) -> None:
        """Zero both ledgers."""
        self._mesh_stats.reset()
        self._star_machine.reset_stats()

    def __repr__(self) -> str:
        return f"EmbeddedMeshMachine(n={self.n}, pes={self.num_pes})"
