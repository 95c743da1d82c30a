"""FIG4 -- the worked embedding example of Section 3.1 (Figure 4).

The paper illustrates the embedding definitions with a tiny example: the
4-cycle ``G`` (vertices 1-2-4-3-1) embedded into the star ``K_{1,3}`` ``S``
(centre ``a`` with leaves ``b``, ``c``, ``d``) by the vertex map
``1->a, 2->b, 3->c, 4->d`` and the edge-to-path map
``(1,2)->ab, (2,4)->bad, (4,3)->dac, (3,1)->ca``; the text states the
resulting expansion is 1 and the dilation and congestion are both 2.

Here the two small graphs are modelled as 1-dimensional "meshes" won't do
(they are not meshes), so they are built as explicit adjacency structures via
a minimal in-module Topology subclass, the embedding is expressed with the
generic :class:`repro.embedding.base.Embedding`, and the metrics are measured
with the same code used for the main result -- confirming expansion 1,
dilation 2, congestion 2.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.embedding.base import Embedding
from repro.embedding.metrics import measure_embedding
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.base import Node, Topology

__all__ = ["ARTIFACT_SCHEMA", "run", "ExplicitGraph"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FIG4"]


class ExplicitGraph(Topology):
    """A tiny explicit-adjacency topology used only by this figure."""

    def __init__(self, adjacency: Dict[Node, List[Node]]):
        self._adjacency = {tuple(k): [tuple(v) for v in vs] for k, vs in adjacency.items()}

    def nodes(self) -> Iterator[Node]:
        return iter(sorted(self._adjacency))

    def neighbors(self, node: Node) -> List[Node]:
        node = self.validate_node(node)
        return list(self._adjacency[node])

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    def is_node(self, node: Sequence[int]) -> bool:
        return tuple(node) in self._adjacency


def run() -> ExperimentResult:
    """Rebuild Figure 4's example embedding and measure its quality."""
    # Guest G: the 4-cycle 1-2-4-3-1 (vertex labels as 1-tuples).
    guest = ExplicitGraph(
        {
            (1,): [(2,), (3,)],
            (2,): [(1,), (4,)],
            (3,): [(1,), (4,)],
            (4,): [(2,), (3,)],
        }
    )
    # Host S: the star K_{1,3}; 0 = a (centre), 1 = b, 2 = c, 3 = d.
    host = ExplicitGraph(
        {
            (0,): [(1,), (2,), (3,)],
            (1,): [(0,)],
            (2,): [(0,)],
            (3,): [(0,)],
        }
    )
    vertex_map = {(1,): (0,), (2,): (1,), (3,): (2,), (4,): (3,)}
    # The paper's edge-to-path mapping, written with the integer labels above.
    paper_paths: Dict[Tuple[Node, Node], List[Node]] = {
        ((1,), (2,)): [(0,), (1,)],            # (1,2) -> a b
        ((2,), (4,)): [(1,), (0,), (3,)],      # (2,4) -> b a d
        ((3,), (4,)): [(2,), (0,), (3,)],      # (4,3) -> d a c, reversed
        ((1,), (3,)): [(0,), (2,)],            # (3,1) -> c a, reversed
    }

    def edge_path(u: Node, v: Node) -> List[Node]:
        if (u, v) in paper_paths:
            return paper_paths[(u, v)]
        return list(reversed(paper_paths[(v, u)]))

    embedding = Embedding(guest, host, vertex_map, edge_path=edge_path, name="figure-4 example")
    metrics = measure_embedding(embedding)
    rows = [
        (f"({u[0]}, {v[0]})", " ".join("abcd"[p[0]] for p in edge_path(u, v)), len(edge_path(u, v)) - 1)
        for u, v in guest.edges()
    ]
    summary = {
        "expansion": metrics.expansion,
        "dilation": metrics.dilation,
        "congestion": metrics.congestion,
        "claim_holds": metrics.expansion == 1.0
        and metrics.dilation == 2
        and metrics.congestion == 2,
    }
    return ExperimentResult(
        experiment_id="FIG4",
        title="Figure 4: example embedding of the 4-cycle into K_{1,3}",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
        notes=["The paper states expansion 1, dilation 2 and congestion 2 for this example."],
    )
