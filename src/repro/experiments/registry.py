"""Registry of all experiments.

Maps the stable experiment identifiers used throughout DESIGN.md and
EXPERIMENTS.md to :class:`ExperimentSpec` entries -- title, ``run`` callable
and the named parameter profiles (``default`` / ``fast`` / ``heavy``).  The
CLI, the test-suite and the benchmark harness all go through this table, so
adding an experiment in one place makes it visible everywhere.

Profiles
--------
``default``
    The ``run()`` defaults of each experiment module -- the sizes used to
    produce EXPERIMENTS.md's measured columns (LEM1/THM4 sweep to degree 8,
    PROP-D runs fault trials at degree 7: the vectorised topology services of
    PR 3 keep all of them in seconds).
``fast``
    Reduced problem sizes for a quick sanity pass (``repro-star run all
    --fast``, the CI smoke test); every experiment stays under a second.
``heavy``
    Larger sweeps for machines with time to spare; no experiment requires
    more memory than the table bound
    (:data:`repro.permutations.ranking.MAX_TABLE_DEGREE`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.experiments.artifacts import ArtifactSchema
from repro.experiments.report import ExperimentResult
from repro.experiments.figures import (
    figure2_star_graph,
    figure3_mesh,
    figure4_example_embedding,
    figure5_6_conversions,
    figure7_mapping_table,
    table1_exchange_sequences,
)
from repro.experiments.claims import (
    exp_broadcast,
    exp_dilation,
    exp_fault_connectivity,
    exp_fault_stretch,
    exp_lemma1_no_dilation1,
    exp_lemma2_transposition_distance,
    exp_network_family,
    exp_optimal_dimension,
    exp_ranking,
    exp_sampled_distance,
    exp_sampled_fault,
    exp_sampled_properties,
    exp_sampled_stretch,
    exp_sorting,
    exp_star_properties,
    exp_star_vs_hypercube,
    exp_uniform_mesh,
    exp_unit_route_simulation,
)

__all__ = [
    "PROFILES",
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_spec",
    "get_experiment",
    "run_experiment",
    "list_experiments",
]

ExperimentFn = Callable[..., ExperimentResult]

#: The named parameter profiles every spec carries.
PROFILES: Tuple[str, ...] = ("default", "fast", "heavy")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: title, run function, profiles and artifact schema.

    Attributes
    ----------
    experiment_id : str
        Stable identifier (``"FIG7"``, ``"THM4"``, ...).
    title : str
        Human-readable title, usually the paper artefact name.
    run : callable
        The experiment function; returns an
        :class:`~repro.experiments.report.ExperimentResult`.
    profiles : mapping of str to mapping
        Named parameter overrides (``fast`` / ``heavy``); the implicit
        ``default`` profile is always the empty override.
    schema : ArtifactSchema, optional
        The experiment module's declared artifact shape
        (:data:`ARTIFACT_SCHEMA`), validated by the sharded runner before a
        result is persisted.
    """

    experiment_id: str
    title: str
    run: ExperimentFn
    profiles: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: MappingProxyType({})
    )
    schema: Optional[ArtifactSchema] = None

    def params(self, profile: str = "default") -> Dict[str, object]:
        """Resolve a profile name into its parameter overrides.

        Parameters
        ----------
        profile : str, optional
            One of :data:`PROFILES`; ``"default"`` always resolves to ``{}``.

        Returns
        -------
        dict
            A fresh, mutable copy of the profile's overrides.

        Raises
        ------
        InvalidParameterError
            If *profile* is not a known profile name.
        """
        if profile not in PROFILES:
            raise InvalidParameterError(
                f"unknown profile {profile!r}; available: {', '.join(PROFILES)}"
            )
        return dict(self.profiles.get(profile, {}))


def _spec(
    experiment_id: str,
    title: str,
    module,
    *,
    fast: Dict[str, object] = None,
    heavy: Dict[str, object] = None,
) -> ExperimentSpec:
    """Build one registry entry from an experiment *module*.

    The module provides ``run`` and its declared ``ARTIFACT_SCHEMA``; the
    registry adds the title and the named profiles.
    """
    profiles = {}
    if fast:
        profiles["fast"] = MappingProxyType(fast)
    if heavy:
        profiles["heavy"] = MappingProxyType(heavy)
    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        run=module.run,
        profiles=MappingProxyType(profiles),
        schema=module.ARTIFACT_SCHEMA,
    )


#: experiment id -> ExperimentSpec (title, run function, parameter profiles)
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        _spec(
            "FIG2",
            "Figure 2: the star graphs S_3 and S_4",
            figure2_star_graph,
            fast={"n": 4},
            heavy={"n": 5},
        ),
        _spec(
            "FIG3",
            "Figure 3: the 2*3*4 mesh D_4",
            figure3_mesh,
            fast={"n": 4},
            heavy={"n": 5},
        ),
        _spec(
            "FIG4",
            "Figure 4: example embedding of the 4-cycle into K_{1,3}",
            figure4_example_embedding,
        ),
        _spec(
            "FIG5",
            "Figures 5 & 6: CONVERT-D-S / CONVERT-S-D worked examples",
            figure5_6_conversions,
        ),
        _spec(
            "FIG7",
            "Figure 7: mapping of V(D_4) into V(S_4)",
            figure7_mapping_table,
        ),
        _spec(
            "TAB1",
            "Table 1: sequence of exchanges per mesh dimension",
            table1_exchange_sequences,
            fast={"n": 5},
            heavy={"n": 7},
        ),
        _spec(
            "LEM1",
            "Lemma 1: no dilation-1 embedding of D_n in S_n for n > 2",
            exp_lemma1_no_dilation1,
            fast={"max_n": 6},
            heavy={"max_n": 9},
        ),
        _spec(
            "LEM2",
            "Lemma 2: distance between pi and pi_(i,j) is 1 or 3",
            exp_lemma2_transposition_distance,
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7), "path_sample_nodes": 720},
        ),
        _spec(
            "THM4",
            "Theorem 4: dilation-3, expansion-1 embedding of D_n into S_n",
            exp_dilation,
            fast={"degrees": (3, 4, 5)},
            heavy={"degrees": (3, 4, 5, 6, 7, 8, 9)},
        ),
        _spec(
            "THM6",
            "Lemma 5 / Theorem 6: mesh unit routes need <= 3 star unit routes",
            exp_unit_route_simulation,
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6)},
        ),
        _spec(
            "PROP-D",
            "Section 2: star-graph properties (diameter, symmetry, faults)",
            exp_star_properties,
            fast={"degrees": (3, 4), "fault_trials": 5},
            heavy={"degrees": (3, 4, 5, 6, 7, 8), "fault_trials": 40},
        ),
        _spec(
            "PROP-B",
            "Section 2: broadcasting vs the 3 n lg n bound",
            exp_broadcast,
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "THM9",
            "Theorems 7-9: slowdown of uniform meshes on the star graph",
            exp_uniform_mesh,
            fast={"degrees": (3, 4, 5, 6), "measured_degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7, 8, 9, 10), "measured_degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "APP",
            "Appendix: reshaping D_n and the optimal simulation dimension",
            exp_optimal_dimension,
            fast={"degrees": (5, 6, 7)},
            heavy={"degrees": (5, 6, 7, 8, 9, 10, 11, 12)},
        ),
        _spec(
            "CONC",
            "Conclusion: sorting on D_n natively and through the embedding",
            exp_sorting,
            fast={"degrees": (4,)},
            heavy={"degrees": (4, 5, 6)},
        ),
        _spec(
            "CMP",
            "Introduction: star graph vs hypercube",
            exp_star_vs_hypercube,
            fast={"max_degree": 7, "embedding_degrees": (3, 4)},
            heavy={"max_degree": 10, "embedding_degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "NETWORK-FAMILY",
            "Cayley family: star vs pancake vs bubble-sort vs hypercube",
            exp_network_family,
            fast={"degrees": (3, 4), "fault_trials": 3},
            heavy={"degrees": (3, 4, 5, 6), "fault_trials": 20},
        ),
        _spec(
            "FAULT-CONNECTIVITY",
            "Fault campaign: disconnection probability vs node-fault rate",
            exp_fault_connectivity,
            fast={"degrees": (3,), "fault_rates": (0.1, 0.25), "trials": 12},
            heavy={"degrees": (4, 5), "trials": 200},
        ),
        _spec(
            "FAULT-STRETCH",
            "Fault campaign: rerouting stretch vs node-fault rate",
            exp_fault_stretch,
            fast={
                "degrees": (3,),
                "fault_rates": (0.0, 0.2),
                "trials": 6,
                "pairs_per_trial": 4,
            },
            heavy={"degrees": (4, 5), "trials": 60},
        ),
        _spec(
            "SAMPLED-DISTANCE",
            "Sampled S_n distance distribution past the table ceiling",
            exp_sampled_distance,
            fast={"degrees": (5,), "samples": 2_000},
            heavy={"degrees": (10, 13), "samples": 1_000_000},
        ),
        _spec(
            "SAMPLED-PROPERTIES",
            "Sampled family comparison at matched sizes (with 95% CIs)",
            exp_sampled_properties,
            fast={"degrees": (4,), "samples": 2_000},
            heavy={"degrees": (9, 12), "samples": 1_000_000},
        ),
        _spec(
            "SAMPLED-FAULT",
            "Sampled ball-local fault connectivity at S_13+ (implicit backend)",
            exp_sampled_fault,
            fast={
                "sizes": (13,),
                "fault_counts": (0, 6),
                "trials": 4,
                "pairs_per_trial": 3,
                "depth": 3,
            },
            heavy={"sizes": (13, 14), "trials": 30, "pairs_per_trial": 6},
        ),
        _spec(
            "SAMPLED-STRETCH",
            "Sampled ball-local rerouting stretch at S_13+ (implicit backend)",
            exp_sampled_stretch,
            fast={
                "sizes": (13,),
                "fault_counts": (0, 6),
                "trials": 4,
                "pairs_per_trial": 3,
                "depth": 3,
            },
            heavy={"sizes": (13, 14), "trials": 30, "pairs_per_trial": 6},
        ),
        _spec(
            "RANKING",
            "Simultaneous rank CIs across families (csranks methodology)",
            exp_ranking,
            fast={"sizes": (5,), "samples": 4_000},
            heavy={"sizes": (8, 9), "samples": 500_000, "exact_check_max": 9},
        ),
    )
}


def list_experiments() -> List[str]:
    """All experiment identifiers in registry order."""
    return list(EXPERIMENTS)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up the :class:`ExperimentSpec` for *experiment_id* (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Look up the run function for *experiment_id* (case-insensitive)."""
    return get_spec(experiment_id).run


def run_experiment(experiment_id: str, *, profile: str = "default", **params) -> ExperimentResult:
    """Run one experiment by id with a profile's parameters and return its result.

    Explicit keyword *params* override the profile's entries.
    """
    spec = get_spec(experiment_id)
    merged = spec.params(profile)
    merged.update(params)
    return spec.run(**merged)
