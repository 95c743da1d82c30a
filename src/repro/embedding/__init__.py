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

from repro.embedding.base import Embedding
from repro.embedding.metrics import (
    EmbeddingMetrics,
    measure_embedding,
    dilation,
    expansion,
    congestion,
    average_dilation,
    verify_embedding,
)
from repro.embedding.mesh_to_star import (
    MeshToStarEmbedding,
    convert_d_s,
    convert_s_d,
    exchange_sequence,
    mesh_neighbor_transposition,
)
from repro.embedding.paths import (
    transposition_path,
    mesh_edge_path,
    unit_route_paths,
)
from repro.embedding.mesh_to_hypercube import (
    MeshToHypercubeEmbedding,
    gray_code,
)
from repro.embedding.uniform import (
    UniformMeshSimulation,
    factorise_paper_mesh,
    atallah_slowdown,
    uniform_on_paper_mesh_slowdown,
)
from repro.embedding.reshape import (
    PaperMeshReshapeEmbedding,
    mixed_radix_gray_encode,
    mixed_radix_gray_decode,
)

__all__ = [
    "Embedding",
    "EmbeddingMetrics",
    "measure_embedding",
    "dilation",
    "expansion",
    "congestion",
    "average_dilation",
    "verify_embedding",
    "MeshToStarEmbedding",
    "convert_d_s",
    "convert_s_d",
    "exchange_sequence",
    "mesh_neighbor_transposition",
    "transposition_path",
    "mesh_edge_path",
    "unit_route_paths",
    "MeshToHypercubeEmbedding",
    "gray_code",
    "UniformMeshSimulation",
    "factorise_paper_mesh",
    "atallah_slowdown",
    "uniform_on_paper_mesh_slowdown",
    "PaperMeshReshapeEmbedding",
    "mixed_radix_gray_encode",
    "mixed_radix_gray_decode",
]
