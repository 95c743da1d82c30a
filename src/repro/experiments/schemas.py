"""Declared artifact shapes of every registered experiment, as plain data.

One :class:`~repro.experiments.artifacts.ArtifactSchema` per experiment id:
the exact table columns the experiment emits and the summary keys it
guarantees.  The runner validates every payload against its schema on write,
and every cached payload on read.

The declarations live here, not in the experiment modules, so that reading a
schema never imports an experiment: a warm ``repro-star run`` validates all
24 cached artifacts without loading NumPy or any topology code.  Each
experiment module still exports its own entry as ``ARTIFACT_SCHEMA =
SCHEMAS["<ID>"]`` and builds its result with
``headers=list(ARTIFACT_SCHEMA.columns)``, so the declaration cannot drift
from the implementation.

This module must stay data-only: it imports nothing but
:class:`~repro.experiments.artifacts.ArtifactSchema`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.experiments.artifacts import ArtifactSchema

__all__ = ["SCHEMAS"]

#: experiment id -> declared artifact shape, in registry order.
SCHEMAS: Mapping[str, ArtifactSchema] = MappingProxyType({
    "FIG2": ArtifactSchema(
        columns=(
            "node",
            "neighbours",
            "degree",
        ),
        summary_keys=("nodes", "edges", "degree", "diameter_formula", "diameter_measured", "edge_parity_alternates", "claim_holds"),
    ),
    "FIG3": ArtifactSchema(
        columns=(
            "node (d_{n-1}..d_1)",
            "neighbours",
            "degree",
        ),
        summary_keys=("sides", "nodes", "edges_formula", "edges_enumerated", "max_degree", "min_degree", "diameter", "claim_holds"),
    ),
    "FIG4": ArtifactSchema(
        columns=(
            "guest edge",
            "host path",
            "length",
        ),
        summary_keys=("expansion", "dilation", "congestion", "claim_holds"),
    ),
    "FIG5": ArtifactSchema(
        columns=(
            "procedure",
            "stage",
            "exchange",
            "arrangement",
        ),
        summary_keys=("convert_d_s((3,0,1))", "paper_forward_expected", "convert_s_d((0 2 1 3))", "paper_inverse_expected", "round_trip_all_nodes", "claim_holds"),
    ),
    "FIG7": ArtifactSchema(
        columns=(
            "D_4 node",
            "computed S_4 node",
            "paper S_4 node",
            "status",
        ),
        summary_keys=("rows", "mismatches", "bijection", "inverse_consistent", "claim_holds"),
    ),
    "TAB1": ArtifactSchema(
        columns=(
            "dimension i",
            "sequence of exchanges",
            "row length",
        ),
        summary_keys=("dimensions", "row_i_length_equals_i", "prefixes_reproduce_convert_d_s", "claim_holds"),
    ),
    "LEM1": ArtifactSchema(
        columns=(
            "n",
            "max mesh degree (measured)",
            "2n-3 (formula)",
            "star degree n-1",
            "dilation-1 possible",
        ),
        summary_keys=("dilation_of_embedding_at_n=2", "claim_holds"),
    ),
    "LEM2": ArtifactSchema(
        columns=(
            "n",
            "nodes checked",
            "pairs at distance 1",
            "pairs at distance 3",
            "pairs at other distances",
            "canonical path shortest",
            "distance-1 iff symbol at front",
        ),
        summary_keys=("claim_holds",),
    ),
    "THM4": ArtifactSchema(
        columns=(
            "n",
            "nodes",
            "mesh edges",
            "expansion",
            "dilation",
            "shortest-path dilation",
            "avg dilation",
            "congestion (static)",
            "edges at dilation 1",
            "edges at dilation 3",
        ),
        summary_keys=("claim_holds",),
    ),
    "THM6": ArtifactSchema(
        columns=(
            "n",
            "mesh dimension",
            "direction",
            "messages",
            "path length",
            "star unit routes used",
            "conflict-free",
            "matches native mesh",
        ),
        summary_keys=("claim_holds",),
    ),
    "PROP-D": ArtifactSchema(
        columns=(
            "n",
            "nodes",
            "diameter floor(3(n-1)/2)",
            "diameter (BFS)",
            "regular of degree n-1",
            "edge count matches n!(n-1)/2",
            "vertex-symmetric (sampled)",
            "node connectivity",
            "connected after n-2 random faults",
        ),
        summary_keys=("claim_holds",),
    ),
    "PROP-B": ArtifactSchema(
        columns=(
            "n",
            "PEs",
            "star broadcast unit routes (greedy)",
            "paper bound ~3 n lg n",
            "lower bound ceil(lg n!)",
            "mesh broadcast unit routes (native)",
            "mesh unit routes (embedded)",
            "star unit routes (embedded)",
            "star/mesh ratio",
        ),
        summary_keys=("claim_holds",),
    ),
    "THM9": ArtifactSchema(
        columns=(
            "n",
            "N = n!",
            "Theorem 7 slowdown",
            "Theorem 8 slowdown (x 2^d)",
            "on star (x dilation 3)",
            "paper bound N^(n/log^2 N)",
            "measured max edge stretch (contraction)",
            "measured max load (contraction)",
        ),
        summary_keys=("claim_holds",),
    ),
    "APP": ArtifactSchema(
        columns=(
            "n",
            "N = n!",
            "2-D factorisation",
            "best d (discrete argmin)",
            "analytic d ~ sqrt(log N)/2",
            "best side lengths",
            "cost at best d",
            "cost at d = n-1 (no reshape)",
            "factorisation valid",
        ),
        summary_keys=("claim_holds",),
    ),
    "CONC": ArtifactSchema(
        columns=(
            "n",
            "keys (n!)",
            "line-sort mesh unit routes",
            "line-sort star unit routes (embedded)",
            "star/mesh ratio",
            "shearsort mesh (Appendix 2-D)",
            "shearsort unit routes",
            "shearsort bound",
            "paper est.: full-dim sort on star",
            "paper est.: optimal-d sort on star",
            "optimal d",
        ),
        summary_keys=("claim_holds",),
    ),
    "CMP": ArtifactSchema(
        columns=(
            "comparison",
            "star graph",
            "hypercube",
            "ratio (nodes / expansion)",
            "cube dim for >= n! nodes",
        ),
        summary_keys=("claim_holds",),
    ),
    "NETWORK-FAMILY": ArtifactSchema(
        columns=(
            "degree",
            "network",
            "nodes",
            "diameter (measured)",
            "avg distance",
            "regular",
            "connected after degree-1 faults",
            "tree broadcast",
        ),
        summary_keys=("claim_holds",),
    ),
    "FAULT-CONNECTIVITY": ArtifactSchema(
        columns=(
            "degree",
            "network",
            "nodes",
            "faults",
            "fault rate",
            "trials",
            "disconnected",
            "P(disconnect) [Wilson 95%]",
        ),
        summary_keys=("claim_holds", "total_trials", "sub_connectivity_disconnections"),
    ),
    "FAULT-STRETCH": ArtifactSchema(
        columns=(
            "degree",
            "network",
            "nodes",
            "faults",
            "fault rate",
            "pairs",
            "unreachable",
            "mean stretch [normal 95%]",
            "max stretch",
        ),
        summary_keys=("claim_holds", "total_pairs", "worst_stretch"),
    ),
    "SAMPLED-DISTANCE": ArtifactSchema(
        columns=(
            "n",
            "nodes",
            "samples",
            "distance",
            "count",
            "share [Wilson 95%]",
        ),
        summary_keys=(
            "claim_holds",
            "means",
            "diameter_lower_bounds",
            "exact_checked_degrees",
        ),
    ),
    "SAMPLED-PROPERTIES": ArtifactSchema(
        columns=(
            "degree",
            "network",
            "nodes",
            "samples",
            "avg distance [95% CI]",
            "exact avg",
            "diameter >=",
            "diameter formula",
        ),
        summary_keys=("claim_holds", "families", "bracket_checks"),
    ),
    "SAMPLED-FAULT": ArtifactSchema(
        columns=(
            "size",
            "network",
            "nodes",
            "depth",
            "faults",
            "trials",
            "pairs",
            "reached",
            "disconnected",
            "truncated",
            "p(disconnect | decided) [Wilson 95%]",
        ),
        summary_keys=(
            "claim_holds",
            "total_pairs",
            "total_disconnected",
            "total_truncated",
        ),
    ),
    "SAMPLED-STRETCH": ArtifactSchema(
        columns=(
            "size",
            "network",
            "nodes",
            "depth",
            "faults",
            "pairs",
            "reached",
            "truncated",
            "mean stretch [normal 95%]",
            "max stretch",
        ),
        summary_keys=(
            "claim_holds",
            "total_pairs",
            "total_truncated",
            "worst_stretch",
        ),
    ),
    "RANKING": ArtifactSchema(
        columns=(
            "size",
            "network",
            "nodes",
            "samples",
            "mean distance",
            "marginal 95%",
            "joint 95% (Bonferroni)",
            "rank 95%",
        ),
        summary_keys=(
            "claim_holds",
            "rank_intervals",
            "separated_pairs",
            "exact_checked_sizes",
        ),
    ),
})
