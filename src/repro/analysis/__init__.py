"""Closed-form bounds and comparative analysis.

Everything the paper states as a formula -- star/hypercube diameters and node
counts, the dilation lower bound of Lemma 1, the Theorem 7/8/9 simulation
slowdowns and the Appendix's optimal simulation dimension -- is implemented
here so the experiments can print "paper bound vs measured value" rows
instead of quoting asymptotics.  The star broadcast bound lives next to the
broadcast it bounds (:func:`repro.algorithms.broadcast.star_broadcast_bound`)
and the Appendix side lengths are
:func:`repro.embedding.uniform.factorise_paper_mesh`.
:mod:`repro.analysis.stored` reads the rows and claims of a stored
``run --json`` payload back.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.analysis.bounds",
            (
                "star_num_nodes",
                "star_degree",
                "star_diameter",
                "hypercube_num_nodes",
                "hypercube_diameter",
                "paper_mesh_max_degree",
                "dilation_lower_bound_exists",
            ),
        ),
        (
            "repro.analysis.comparison",
            (
                "NetworkRow",
                "star_vs_hypercube_table",
                "closest_hypercube_for_star",
            ),
        ),
        (
            "repro.analysis.simulation_cost",
            (
                "SimulationCostRow",
                "uniform_simulation_table",
                "sorting_cost_estimates",
            ),
        ),
        (
            "repro.analysis.optimal_dimension",
            (
                "appendix_cost",
                "optimal_dimension_table",
            ),
        ),
        (
            "repro.analysis.stored",
            (
                "load_results",
                "stored_result",
                "stored_rows",
                "claim_summary",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
