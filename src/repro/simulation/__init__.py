"""Monte-Carlo fault injection with fault-aware rerouting.

The paper's fault-tolerance story (star graphs stay connected under up to
``n - 2`` node faults, Section 2) gets its campaign layer here: seeded
random node-fault trials over the alive-mask connectivity services, BFS
detour rerouting on the masked adjacency table, and degradation curves --
disconnection probability and route stretch vs fault rate, every point
carrying a confidence interval.

Layout:

* :mod:`repro.simulation.stats` -- Wilson / normal intervals and the
  order-free per-trial seed derivation;
* :mod:`repro.simulation.rerouting` -- masked BFS sweeps and explicit
  detour paths on the surviving subgraph;
* :mod:`repro.simulation.campaign` -- the campaigns themselves, plus the
  matched-size family instances (star / pancake / bubble-sort at ``n!``
  nodes, hypercube at ``ceil(log2 n!)`` dimensions);
* :mod:`repro.simulation.sampling` -- seeded sampled distance statistics
  (mean with 95% CI, histogram with Wilson buckets, diameter lower bound)
  from closed-form distances on random node pairs, the S_13+ path past the
  table ceiling, plus the truncated-BFS pancake estimator;
* :mod:`repro.simulation.sampled_campaign` -- ball-local fault and
  rerouting-stretch campaigns over bounded-depth BFS balls on the implicit
  backend, with explicit truncated-pair accounting -- the S_13+ campaign
  layer.

The FAULT-CONNECTIVITY, FAULT-STRETCH, SAMPLED-* and RANKING registry
experiments are thin tables over these functions; everything here is
importable and testable without the experiment stack.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.simulation.campaign",
            (
                "CAMPAIGN_FAMILIES",
                "ConnectivityPoint",
                "StretchPoint",
                "campaign_instances",
                "connectivity_campaign",
                "connectivity_campaign_reference",
                "fault_counts_for_rates",
                "sample_fault_indices",
                "stretch_campaign",
            ),
        ),
        ("repro.simulation.rerouting", ("masked_bfs_distances", "masked_route")),
        (
            "repro.simulation.sampled_campaign",
            (
                "SAMPLED_CAMPAIGN_FAMILIES",
                "SampledFaultPoint",
                "sampled_campaign_instances",
                "sampled_fault_campaign",
            ),
        ),
        (
            "repro.simulation.sampling",
            (
                "SAMPLING_FAMILIES",
                "PancakeDistanceEstimate",
                "SampledDistanceEstimate",
                "default_pancake_depth",
                "exact_average_distance",
                "family_diameter_formula",
                "family_num_nodes",
                "pancake_relative_ranks",
                "sampled_distance_estimate",
                "sampled_pair_distances",
                "sampled_pancake_estimate",
            ),
        ),
        (
            "repro.simulation.stats",
            (
                "Z_95",
                "RankInterval",
                "derive_trial_seed",
                "mean_interval",
                "moments_interval",
                "normal_cdf",
                "normal_quantile",
                "rank_intervals",
                "simultaneous_intervals",
                "wilson_interval",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
