"""repro -- reproduction of "Embedding Meshes on the Star Graph" (Ranka, Wang & Yeh, Supercomputing 1990).

The package implements the paper's dilation-3, expansion-1 embedding of the
``2*3*...*n`` mesh into the ``n``-star graph, every substrate it relies on
(permutation algebra, star/mesh/hypercube topologies, an SIMD multicomputer
simulator with unit-route accounting), the parallel algorithms used to
exercise it, and the analysis/experiment harness that regenerates every figure
and table of the paper.

Quickstart
----------
>>> from repro import MeshToStarEmbedding
>>> emb = MeshToStarEmbedding(4)
>>> emb.map_node((3, 0, 1))
(0, 3, 1, 2)
>>> from repro.embedding import measure_embedding
>>> measure_embedding(emb).dilation
3
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.exceptions",
            (
                "ReproError",
                "InvalidParameterError",
                "InvalidNodeError",
                "InvalidPermutationError",
                "EmbeddingError",
                "DilationViolationError",
                "SimulationError",
                "RouteConflictError",
            ),
        ),
        ("repro.permutations.permutation", ("Permutation",)),
        ("repro.permutations.ranking", ("permutation_rank", "permutation_unrank")),
        ("repro.topology.star", ("StarGraph",)),
        ("repro.topology.mesh", ("Mesh",)),
        ("repro.topology.hypercube", ("Hypercube",)),
        ("repro.topology.mesh", ("paper_mesh",)),
        ("repro.embedding.base", ("Embedding",)),
        ("repro.embedding.mesh_to_star", ("MeshToStarEmbedding",)),
        ("repro.embedding.mesh_to_hypercube", ("MeshToHypercubeEmbedding",)),
        ("repro.embedding.mesh_to_star", ("convert_d_s", "convert_s_d")),
        ("repro.embedding.metrics", ("measure_embedding",)),
        ("repro.simd.machine", ("SIMDMachine",)),
        ("repro.simd.star_machine", ("StarMachine",)),
        ("repro.simd.mesh_machine", ("MeshMachine",)),
        ("repro.simd.embedded", ("EmbeddedMeshMachine",)),
    )
    for name in names
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
