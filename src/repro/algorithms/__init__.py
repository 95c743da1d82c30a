"""Parallel algorithms on the SIMD machine model.

The kernels here are written against the *mesh machine interface* (registers,
masked local operations, the ``route_dimension`` unit route) so the very same
code runs on

* :class:`~repro.simd.mesh_machine.MeshMachine` -- a native mesh, counting
  mesh unit routes, and
* :class:`~repro.simd.embedded.EmbeddedMeshMachine` -- the mesh simulated on a
  star graph through the paper's embedding, counting both mesh- and star-level
  unit routes.

Running a kernel on both machines and comparing the ledgers is exactly the
experiment Theorem 6 calls for: the star-level count never exceeds three times
the mesh-level count.

The modules:

* :mod:`~repro.algorithms.sorting` -- odd-even transposition sort, shearsort
  and the snake order it sorts into (the sorting experiment);
* :mod:`~repro.algorithms.shift` and :mod:`~repro.algorithms.scan` --
  boundary shifts, cyclic rotations, prefix sums and line totals;
* :mod:`~repro.algorithms.broadcast` -- the mesh broadcast, plus greedy
  broadcasting on ``S_n`` itself and its bound (Section 2, property 3);
* :mod:`~repro.algorithms.reduction` -- the mesh reduction to the origin;
* :mod:`~repro.algorithms.cayley` -- broadcast scheduled one generator at a
  time over a BFS tree of any Cayley machine;
* :mod:`~repro.algorithms.reference` -- the per-call implementations every
  compiled kernel above is held to, bit for bit, by the parity tests.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.algorithms.broadcast",
            (
                "mesh_broadcast",
                "cayley_broadcast_greedy",
                "star_broadcast_greedy",
                "star_broadcast_bound",
            ),
        ),
        (
            "repro.algorithms.cayley",
            (
                "cayley_broadcast_tree",
                "generator_tree_plan",
            ),
        ),
        ("repro.algorithms.reduction", ("mesh_reduce",)),
        ("repro.algorithms.scan", ("prefix_sum_dimension", "segmented_totals")),
        ("repro.algorithms.shift", ("shift_dimension", "rotate_dimension")),
        (
            "repro.algorithms.sorting",
            (
                "odd_even_transposition_sort",
                "shearsort_2d",
                "snake_order_rank",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
