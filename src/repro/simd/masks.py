"""Activity masks.

The paper's instruction format ``A(i) := A(i) + 1, (f(i) = y)`` attaches a
boolean *mask* selecting which PEs execute a broadcast instruction.  A
:class:`Mask` wraps such a selection; it can be built from a predicate on node
identifiers, from an explicit node collection, or from another register
(treating its values as truthy/falsy), and supports the boolean algebra
(``&``, ``|``, ``~``) masks are usually combined with.

Fast representation
-------------------
Masks additionally carry an index-based fast representation: a dense boolean
list over the canonical node order (:meth:`Mask.dense_flags`) and the sorted
active node indices (:meth:`Mask.active_indices`), both computed lazily and
cached.  The hot paths of the SIMD machines iterate these instead of calling a
per-node predicate.

Masks built by :meth:`Mask.from_spec` also carry a hashable structural *key*
(a mask **spec**, see below), are cached per ``(topology, key)``, and keep
their keys under ``&``/``|``/``~``.  Kernels that pass these instead of opaque
lambdas get cacheable masked routes and compiled route programs
(:mod:`repro.simd.programs`).

Mask specs
----------
A *spec* is a small hashable tuple describing a mask independently of any
machine instance, evaluated against a topology by :func:`mask_flags`:

``("all",)`` / ``("none",)``
    every PE / no PE;
``("parity", dim, parity)``
    PEs whose coordinate ``dim`` has the given parity (0 or 1);
``("eq", dim, value)`` / ``("lt", dim, bound)`` / ``("gt", dim, bound)``
    coordinate comparisons along one dimension;
``("and", a, b)`` / ``("or", a, b)`` / ``("not", a)``
    boolean combinations of two specs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import MaskError
from repro.topology.base import Node, Topology

__all__ = [
    "Mask",
    "MASK_ALL",
    "MASK_NONE",
    "mask_flags",
    "mask_indices",
    "spec_and",
    "spec_or",
    "spec_not",
]

MaskSource = Union["Mask", Callable[[Node], bool], Iterable[Node], None]
MaskSpec = Tuple  # see module docstring for the grammar

MASK_ALL: MaskSpec = ("all",)
MASK_NONE: MaskSpec = ("none",)

_LEAF_SPECS = {"all", "none", "parity", "eq", "lt", "gt"}


# ------------------------------------------------------------- spec algebra
def spec_and(a: MaskSpec, b: MaskSpec) -> MaskSpec:
    """Conjunction of two mask specs (with trivial simplifications)."""
    if a == MASK_ALL:
        return b
    if b == MASK_ALL:
        return a
    if a == MASK_NONE or b == MASK_NONE:
        return MASK_NONE
    return ("and", a, b)


def spec_or(a: MaskSpec, b: MaskSpec) -> MaskSpec:
    """Disjunction of two mask specs (with trivial simplifications)."""
    if a == MASK_NONE:
        return b
    if b == MASK_NONE:
        return a
    if a == MASK_ALL or b == MASK_ALL:
        return MASK_ALL
    return ("or", a, b)


def spec_not(a: MaskSpec) -> MaskSpec:
    """Negation of a mask spec (with trivial simplifications)."""
    if a == MASK_ALL:
        return MASK_NONE
    if a == MASK_NONE:
        return MASK_ALL
    if a and a[0] == "not":
        return a[1]
    return ("not", a)


def _eval_spec(spec: MaskSpec, nodes: Sequence[Node]) -> List[bool]:
    kind = spec[0]
    if kind == "all":
        return [True] * len(nodes)
    if kind == "none":
        return [False] * len(nodes)
    if kind == "parity":
        _, dim, parity = spec
        return [node[dim] % 2 == parity for node in nodes]
    if kind == "eq":
        _, dim, value = spec
        return [node[dim] == value for node in nodes]
    if kind == "lt":
        _, dim, bound = spec
        return [node[dim] < bound for node in nodes]
    if kind == "gt":
        _, dim, bound = spec
        return [node[dim] > bound for node in nodes]
    if kind == "and":
        left = _eval_spec(spec[1], nodes)
        right = _eval_spec(spec[2], nodes)
        return [x and y for x, y in zip(left, right)]
    if kind == "or":
        left = _eval_spec(spec[1], nodes)
        right = _eval_spec(spec[2], nodes)
        return [x or y for x, y in zip(left, right)]
    if kind == "not":
        return [not x for x in _eval_spec(spec[1], nodes)]
    raise MaskError(f"unknown mask spec {spec!r}")


def _validate_spec(spec: MaskSpec, ndim: int) -> None:
    if not isinstance(spec, tuple) or not spec:
        raise MaskError(f"mask spec must be a non-empty tuple, got {spec!r}")
    kind = spec[0]
    if kind in ("all", "none"):
        return
    if kind in ("parity", "eq", "lt", "gt"):
        if len(spec) != 3:
            raise MaskError(f"mask spec {spec!r} needs exactly (kind, dim, value)")
        dim = spec[1]
        if not (isinstance(dim, int) and 0 <= dim < ndim):
            raise MaskError(f"mask spec {spec!r}: dimension out of range for ndim={ndim}")
        if kind == "parity" and spec[2] not in (0, 1):
            raise MaskError(f"mask spec {spec!r}: parity must be 0 or 1")
        return
    if kind in ("and", "or"):
        if len(spec) != 3:
            raise MaskError(f"mask spec {spec!r} needs exactly two operands")
        _validate_spec(spec[1], ndim)
        _validate_spec(spec[2], ndim)
        return
    if kind == "not":
        if len(spec) != 2:
            raise MaskError(f"mask spec {spec!r} needs exactly one operand")
        _validate_spec(spec[1], ndim)
        return
    raise MaskError(f"unknown mask spec kind {kind!r}")


# Flags / index caches keyed by (topology, spec).  Mesh and StarGraph both
# implement value-based __eq__/__hash__, so equal geometries share entries;
# unhashable topologies are evaluated uncached.
_FLAGS_CACHE: Dict[Tuple[Topology, MaskSpec], List[bool]] = {}
_INDICES_CACHE: Dict[Tuple[Topology, MaskSpec], Tuple[int, ...]] = {}
_MASK_CACHE: Dict[Tuple[Topology, MaskSpec], "Mask"] = {}


def mask_flags(topology: Topology, spec: MaskSpec) -> List[bool]:
    """Dense boolean flags of *spec* over *topology*'s canonical node order.

    Cached per ``(topology, spec)``; callers must not mutate the result.
    """
    try:
        key = (topology, spec)
        cached = _FLAGS_CACHE.get(key)
    except TypeError:
        key = None
        cached = None
    if cached is not None:
        return cached
    nodes = list(topology.nodes())
    _validate_spec(spec, len(nodes[0]) if nodes else 0)
    flags = _eval_spec(spec, nodes)
    if key is not None:
        _FLAGS_CACHE[key] = flags
    return flags


def mask_indices(topology: Topology, spec: MaskSpec) -> Tuple[int, ...]:
    """Sorted active node indices of *spec* over *topology* (cached)."""
    try:
        key = (topology, spec)
        cached = _INDICES_CACHE.get(key)
    except TypeError:
        key = None
        cached = None
    if cached is not None:
        return cached
    flags = mask_flags(topology, spec)
    indices = tuple(index for index, flag in enumerate(flags) if flag)
    if key is not None:
        _INDICES_CACHE[key] = indices
    return indices


class Mask:
    """A boolean activity flag per node of a topology."""

    def __init__(
        self,
        topology: Topology,
        active: Optional[Dict[Node, bool]] = None,
        *,
        key: Optional[MaskSpec] = None,
        flags: Optional[Sequence[bool]] = None,
    ):
        self._topology = topology
        if active is None and flags is None:
            raise MaskError("a mask needs an active mapping or dense flags")
        self._active: Optional[Dict[Node, bool]] = dict(active) if active is not None else None
        if self._active is not None and len(self._active) != topology.num_nodes:
            raise MaskError(
                f"mask covers {len(self._active)} nodes but topology has {topology.num_nodes}"
            )
        self._key = key
        self._flags: Optional[List[bool]] = list(flags) if flags is not None else None
        if self._flags is not None and len(self._flags) != topology.num_nodes:
            raise MaskError(
                f"mask covers {len(self._flags)} nodes but topology has {topology.num_nodes}"
            )
        self._indices: Optional[Tuple[int, ...]] = None

    def _active_map(self) -> Dict[Node, bool]:
        """The tuple-keyed facade mapping, materialised lazily for flag-built masks."""
        if self._active is None:
            self._active = dict(zip(self._topology.nodes(), self._flags))
        return self._active

    # ----------------------------------------------------------- constructors
    @classmethod
    def all_active(cls, topology: Topology) -> "Mask":
        """Mask selecting every PE."""
        return cls.from_spec(topology, MASK_ALL)

    @classmethod
    def from_predicate(cls, topology: Topology, predicate: Callable[[Node], bool]) -> "Mask":
        """Mask selecting the PEs whose node satisfies *predicate* (the paper's ``f(i) = y``)."""
        return cls(topology, {node: bool(predicate(node)) for node in topology.nodes()})

    @classmethod
    def from_nodes(cls, topology: Topology, nodes: Iterable[Node]) -> "Mask":
        """Mask selecting exactly the given nodes."""
        selected = {tuple(node) for node in nodes}
        for node in selected:
            if not topology.is_node(node):
                raise MaskError(f"{node!r} is not a node of {topology!r}")
        return cls(topology, {node: node in selected for node in topology.nodes()})

    @classmethod
    def from_spec(cls, topology: Topology, spec: MaskSpec) -> "Mask":
        """The mask described by a hashable *spec* (see module docstring).

        Spec-built masks are cached per ``(topology, spec)`` and shared, so
        repeated masked instructions pay the node sweep once.
        """
        try:
            cache_key = (topology, spec)
            cached = _MASK_CACHE.get(cache_key)
        except TypeError:
            cache_key = None
            cached = None
        if cached is not None:
            return cached
        mask = cls(topology, key=spec, flags=mask_flags(topology, spec))
        if cache_key is not None:
            _MASK_CACHE[cache_key] = mask
        return mask

    @classmethod
    def from_flags(
        cls,
        topology: Topology,
        flags: Sequence[bool],
        *,
        key: Optional[MaskSpec] = None,
    ) -> "Mask":
        """Mask from dense boolean flags in canonical topology order."""
        return cls(topology, key=key, flags=flags)

    @classmethod
    def coerce(cls, topology: Topology, source: MaskSource) -> "Mask":
        """Build a mask from any accepted source (None means all-active)."""
        if source is None:
            return cls.all_active(topology)
        if isinstance(source, Mask):
            if source._topology.num_nodes != topology.num_nodes:
                raise MaskError("mask belongs to a different topology")
            return source
        if callable(source):
            return cls.from_predicate(topology, source)
        return cls.from_nodes(topology, source)

    # ------------------------------------------------------------------ query
    @property
    def topology(self) -> Topology:
        """The topology the mask is defined over."""
        return self._topology

    @property
    def key(self) -> Optional[MaskSpec]:
        """Hashable structural key (a mask spec), or None for opaque masks.

        Spec-keyed masks can be used as cache keys by masked-route plans and
        compiled route programs; predicate- and node-set-built masks cannot.
        """
        return self._key

    def is_active(self, node: Node) -> bool:
        """True if *node* executes masked instructions."""
        try:
            return self._active_map()[tuple(node)]
        except KeyError as exc:
            raise MaskError(f"{node!r} is not covered by this mask") from exc

    def dense_flags(self) -> List[bool]:
        """Boolean flags in canonical topology (node-index) order, cached.

        Callers must treat the result as read-only; it is shared.
        """
        if self._flags is None:
            active = self._active_map()
            self._flags = [active[node] for node in self._topology.nodes()]
        return self._flags

    def active_indices(self) -> Tuple[int, ...]:
        """Sorted dense indices of the active PEs, cached."""
        if self._indices is None:
            self._indices = tuple(
                index for index, flag in enumerate(self.dense_flags()) if flag
            )
        return self._indices

    def count(self) -> int:
        """Number of selected nodes."""
        return sum(1 for value in self.dense_flags() if value)

    # ---------------------------------------------------------------- algebra
    def _combine(
        self,
        other: "Mask",
        op: Callable[[bool, bool], bool],
        key: Optional[MaskSpec],
    ) -> "Mask":
        if other._topology.num_nodes != self._topology.num_nodes:
            raise MaskError("cannot combine masks over different topologies")
        if key is not None:
            return Mask.from_spec(self._topology, key)
        return Mask.from_flags(
            self._topology,
            [op(a, b) for a, b in zip(self.dense_flags(), other.dense_flags())],
        )

    def __and__(self, other: "Mask") -> "Mask":
        key = (
            spec_and(self._key, other._key)
            if self._key is not None and other._key is not None
            else None
        )
        return self._combine(other, lambda a, b: a and b, key)

    def __or__(self, other: "Mask") -> "Mask":
        key = (
            spec_or(self._key, other._key)
            if self._key is not None and other._key is not None
            else None
        )
        return self._combine(other, lambda a, b: a or b, key)

    def __invert__(self) -> "Mask":
        if self._key is not None:
            return Mask.from_spec(self._topology, spec_not(self._key))
        return Mask.from_flags(self._topology, [not value for value in self.dense_flags()])

    def __repr__(self) -> str:
        return f"Mask(active={self.count()}/{self._topology.num_nodes})"
