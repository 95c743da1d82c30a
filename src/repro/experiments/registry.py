"""Registry of all experiments.

Maps the stable experiment identifiers used throughout DESIGN.md and
EXPERIMENTS.md to :class:`ExperimentSpec` entries -- title, ``run`` callable
and the named parameter profiles (``default`` / ``fast`` / ``heavy``).  The
CLI, the test-suite and the benchmark harness all go through this table, so
adding an experiment in one place makes it visible everywhere.

Entries name their experiment module by dotted path and read their schema
from :mod:`repro.experiments.schemas`, so building the table imports no
experiment code: ``run`` imports the module on its first call.  Listing,
planning and serving cached shards therefore never load NumPy, networkx or
the topology stack; running one experiment loads only what it uses.

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

from repro._lazy import import_path
from repro.exceptions import InvalidParameterError
from repro.experiments.artifacts import ArtifactSchema
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS

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


class _ModuleRun:
    """The ``run`` of an experiment module, imported on the first call.

    A registry entry names its module by dotted path, so building the
    registry (and every command that only plans, lists or serves cached
    shards) imports no experiment code.  The first call imports the module
    and forwards to its ``run``; later calls go straight through.
    """

    __slots__ = ("module", "_run")

    def __init__(self, module: str):
        self.module = module
        self._run: Optional[ExperimentFn] = None

    def __call__(self, **params) -> ExperimentResult:
        if self._run is None:
            self._run = import_path(self.module).run
        return self._run(**params)

    def __repr__(self) -> str:
        return f"<run of {self.module}>"


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
        :class:`~repro.experiments.report.ExperimentResult`.  Registry entries
        hold a trampoline that imports :attr:`module` on its first call.
    profiles : mapping of str to mapping
        Named parameter overrides (``fast`` / ``heavy``); the implicit
        ``default`` profile is always the empty override.
    schema : ArtifactSchema, optional
        The experiment's declared artifact shape
        (:data:`repro.experiments.schemas.SCHEMAS`, which the module exports
        as :data:`ARTIFACT_SCHEMA`), validated by the sharded runner before
        a result is persisted and when a cached one is served.
    module : str, optional
        Dotted path of the experiment module.
    """

    experiment_id: str
    title: str
    run: ExperimentFn
    profiles: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: MappingProxyType({})
    )
    schema: Optional[ArtifactSchema] = None
    module: Optional[str] = None

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
    module: str,
    *,
    fast: Dict[str, object] = None,
    heavy: Dict[str, object] = None,
) -> ExperimentSpec:
    """Build one registry entry for the experiment module at dotted path *module*.

    The module is not imported: ``run`` is a trampoline that imports it on
    the first call, and the schema comes from
    :data:`repro.experiments.schemas.SCHEMAS`.  The registry adds the title
    and the named profiles.
    """
    profiles = {}
    if fast:
        profiles["fast"] = MappingProxyType(fast)
    if heavy:
        profiles["heavy"] = MappingProxyType(heavy)
    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        run=_ModuleRun(module),
        profiles=MappingProxyType(profiles),
        schema=SCHEMAS[experiment_id],
        module=module,
    )


#: experiment id -> ExperimentSpec (title, module, parameter profiles, schema)
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        _spec(
            "FIG2",
            "Figure 2: the star graphs S_3 and S_4",
            "repro.experiments.figures.figure2_star_graph",
            fast={"n": 4},
            heavy={"n": 5},
        ),
        _spec(
            "FIG3",
            "Figure 3: the 2*3*4 mesh D_4",
            "repro.experiments.figures.figure3_mesh",
            fast={"n": 4},
            heavy={"n": 5},
        ),
        _spec(
            "FIG4",
            "Figure 4: example embedding of the 4-cycle into K_{1,3}",
            "repro.experiments.figures.figure4_example_embedding",
        ),
        _spec(
            "FIG5",
            "Figures 5 & 6: CONVERT-D-S / CONVERT-S-D worked examples",
            "repro.experiments.figures.figure5_6_conversions",
        ),
        _spec(
            "FIG7",
            "Figure 7: mapping of V(D_4) into V(S_4)",
            "repro.experiments.figures.figure7_mapping_table",
        ),
        _spec(
            "TAB1",
            "Table 1: sequence of exchanges per mesh dimension",
            "repro.experiments.figures.table1_exchange_sequences",
            fast={"n": 5},
            heavy={"n": 7},
        ),
        _spec(
            "LEM1",
            "Lemma 1: no dilation-1 embedding of D_n in S_n for n > 2",
            "repro.experiments.claims.exp_lemma1_no_dilation1",
            fast={"max_n": 6},
            heavy={"max_n": 9},
        ),
        _spec(
            "LEM2",
            "Lemma 2: distance between pi and pi_(i,j) is 1 or 3",
            "repro.experiments.claims.exp_lemma2_transposition_distance",
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7), "path_sample_nodes": 720},
        ),
        _spec(
            "THM4",
            "Theorem 4: dilation-3, expansion-1 embedding of D_n into S_n",
            "repro.experiments.claims.exp_dilation",
            fast={"degrees": (3, 4, 5)},
            heavy={"degrees": (3, 4, 5, 6, 7, 8, 9)},
        ),
        _spec(
            "THM6",
            "Lemma 5 / Theorem 6: mesh unit routes need <= 3 star unit routes",
            "repro.experiments.claims.exp_unit_route_simulation",
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6)},
        ),
        _spec(
            "PROP-D",
            "Section 2: star-graph properties (diameter, symmetry, faults)",
            "repro.experiments.claims.exp_star_properties",
            fast={"degrees": (3, 4), "fault_trials": 5},
            heavy={"degrees": (3, 4, 5, 6, 7, 8), "fault_trials": 40},
        ),
        _spec(
            "PROP-B",
            "Section 2: broadcasting vs the 3 n lg n bound",
            "repro.experiments.claims.exp_broadcast",
            fast={"degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "THM9",
            "Theorems 7-9: slowdown of uniform meshes on the star graph",
            "repro.experiments.claims.exp_uniform_mesh",
            fast={"degrees": (3, 4, 5, 6), "measured_degrees": (3, 4)},
            heavy={"degrees": (3, 4, 5, 6, 7, 8, 9, 10), "measured_degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "APP",
            "Appendix: reshaping D_n and the optimal simulation dimension",
            "repro.experiments.claims.exp_optimal_dimension",
            fast={"degrees": (5, 6, 7)},
            heavy={"degrees": (5, 6, 7, 8, 9, 10, 11, 12)},
        ),
        _spec(
            "CONC",
            "Conclusion: sorting on D_n natively and through the embedding",
            "repro.experiments.claims.exp_sorting",
            fast={"degrees": (4,)},
            heavy={"degrees": (4, 5, 6)},
        ),
        _spec(
            "CMP",
            "Introduction: star graph vs hypercube",
            "repro.experiments.claims.exp_star_vs_hypercube",
            fast={"max_degree": 7, "embedding_degrees": (3, 4)},
            heavy={"max_degree": 10, "embedding_degrees": (3, 4, 5, 6, 7)},
        ),
        _spec(
            "NETWORK-FAMILY",
            "Cayley family: star vs pancake vs bubble-sort vs hypercube",
            "repro.experiments.claims.exp_network_family",
            fast={"degrees": (3, 4), "fault_trials": 3},
            heavy={"degrees": (3, 4, 5, 6), "fault_trials": 20},
        ),
        _spec(
            "FAULT-CONNECTIVITY",
            "Fault campaign: disconnection probability vs node-fault rate",
            "repro.experiments.claims.exp_fault_connectivity",
            fast={"degrees": (3,), "fault_rates": (0.1, 0.25), "trials": 12},
            heavy={"degrees": (4, 5), "trials": 200},
        ),
        _spec(
            "FAULT-STRETCH",
            "Fault campaign: rerouting stretch vs node-fault rate",
            "repro.experiments.claims.exp_fault_stretch",
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
            "repro.experiments.claims.exp_sampled_distance",
            fast={"degrees": (5,), "samples": 2_000},
            heavy={"degrees": (10, 13), "samples": 1_000_000},
        ),
        _spec(
            "SAMPLED-PROPERTIES",
            "Sampled family comparison at matched sizes (with 95% CIs)",
            "repro.experiments.claims.exp_sampled_properties",
            fast={"degrees": (4,), "samples": 2_000},
            heavy={"degrees": (9, 12), "samples": 1_000_000},
        ),
        _spec(
            "SAMPLED-FAULT",
            "Sampled ball-local fault connectivity at S_13+ (implicit backend)",
            "repro.experiments.claims.exp_sampled_fault",
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
            "repro.experiments.claims.exp_sampled_stretch",
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
            "repro.experiments.claims.exp_ranking",
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
