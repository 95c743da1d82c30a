"""Experiment harness.

Every figure, table and quantitative claim of the paper has a module here
that regenerates it from the library.  Each experiment module exposes a
``run(**params) -> ExperimentResult`` function; the registry maps stable
experiment identifiers (``FIG7``, ``THM4``, ...) to those functions, and the
command-line entry point (``repro-star``, see :mod:`repro.experiments.cli`)
lists and runs them and renders the results as plain-text tables.

The benchmark suite under ``benchmarks/`` wraps the same ``run`` functions in
pytest-benchmark fixtures, so "the code that regenerates Table/Figure X" and
"the benchmark for Table/Figure X" are literally the same code path.

Results persist: the sharded runner (:mod:`repro.experiments.runner`) fans
the registry out over worker processes and writes one content-addressed JSON
artifact per ``(experiment, profile, params)`` into an
:class:`~repro.experiments.artifacts.ArtifactStore` (``repro-star run all
--jobs N --out results/``), which ``repro-star report`` renders as a static
Markdown/HTML page.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.experiments.report",
            (
                "ExperimentResult",
                "format_table",
                "render_result",
            ),
        ),
        (
            "repro.experiments.registry",
            (
                "EXPERIMENTS",
                "get_experiment",
                "run_experiment",
                "list_experiments",
            ),
        ),
        (
            "repro.experiments.artifacts",
            (
                "ArtifactSchema",
                "ArtifactStore",
                "artifact_key",
            ),
        ),
        (
            "repro.experiments.runner",
            (
                "RunReport",
                "Shard",
                "plan_shards",
                "run_shards",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
