"""Graph embeddings.

This subpackage contains the paper's primary contribution -- the dilation-3,
expansion-1 embedding of the mixed-radix mesh ``D_n`` into the star graph
``S_n`` -- together with the generic embedding framework (vertex map +
edge-to-path map + quality metrics) it is expressed in, a Gray-code
mesh-into-hypercube baseline, and the Section-4 / Appendix machinery for
simulating *uniform* meshes through ``D_n``.

Public entry points
-------------------
:func:`~repro.embedding.mesh_to_star.convert_d_s`
    The paper's Figure 5 algorithm (mesh coordinate -> star permutation).
:func:`~repro.embedding.mesh_to_star.convert_s_d`
    The paper's Figure 6 algorithm (star permutation -> mesh coordinate).
:class:`~repro.embedding.mesh_to_star.MeshToStarEmbedding`
    The full embedding object with edge-to-path mapping and metrics.
:class:`~repro.embedding.base.Embedding`
    Generic embedding container used by the metrics and the baselines.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.embedding.base", ("Embedding",)),
        (
            "repro.embedding.metrics",
            (
                "EmbeddingMetrics",
                "measure_embedding",
                "dilation",
                "expansion",
                "congestion",
                "average_dilation",
                "verify_embedding",
            ),
        ),
        (
            "repro.embedding.mesh_to_star",
            (
                "MeshToStarEmbedding",
                "convert_d_s",
                "convert_s_d",
                "exchange_sequence",
                "mesh_neighbor_transposition",
            ),
        ),
        (
            "repro.embedding.paths",
            (
                "transposition_path",
                "mesh_edge_path",
                "unit_route_paths",
            ),
        ),
        (
            "repro.embedding.mesh_to_hypercube",
            (
                "MeshToHypercubeEmbedding",
                "gray_code",
            ),
        ),
        (
            "repro.embedding.uniform",
            (
                "UniformMeshSimulation",
                "factorise_paper_mesh",
                "atallah_slowdown",
                "uniform_on_paper_mesh_slowdown",
            ),
        ),
        (
            "repro.embedding.reshape",
            (
                "PaperMeshReshapeEmbedding",
                "mixed_radix_gray_encode",
                "mixed_radix_gray_decode",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
