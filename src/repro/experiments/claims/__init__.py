"""Measurement experiments for the paper's quantitative claims.

One module per claim:

========  =====================================================  =========================
ID        Paper claim                                            Module
========  =====================================================  =========================
LEM1      No dilation-1 embedding for ``n > 2``                  ``exp_lemma1_no_dilation1``
LEM2      Transposition distance is 1 or 3                       ``exp_lemma2_transposition_distance``
THM4      The embedding has dilation 3 (and expansion 1)         ``exp_dilation``
THM6      A mesh unit route costs <= 3 star unit routes          ``exp_unit_route_simulation``
PROP-D    Star diameter = floor(3(n-1)/2); regular, symmetric,   ``exp_star_properties``
          maximally fault tolerant
PROP-B    Broadcasting within the 3 n lg n bound                 ``exp_broadcast``
THM7/8/9  Uniform-mesh simulation slowdowns                      ``exp_uniform_mesh``
APP       Appendix factorisation and optimal dimension           ``exp_optimal_dimension``
CONC      Sorting on the star graph through the embedding        ``exp_sorting``
CMP       Star vs hypercube comparison (introduction)            ``exp_star_vs_hypercube``
NETWORK-  Star vs pancake vs bubble-sort vs hypercube            ``exp_network_family``
FAMILY    (the Cayley family on the rank-indexed core)
FAULT-    Monte-Carlo disconnection probability under node       ``exp_fault_connectivity``
CONN...   faults (zero below the connectivity, Wilson CIs)
FAULT-    Route stretch of fault-aware rerouting (detour vs      ``exp_fault_stretch``
STRETCH   healthy shortest path, normal CIs)
SAMPLED-  Sampled S_n distance distribution past the table       ``exp_sampled_distance``
DISTANCE  ceiling (closed-form pairs, 95% CIs)
SAMPLED-  Sampled family comparison at matched sizes             ``exp_sampled_properties``
PROPS...  (avg distance CIs, diameter lower bounds)
SAMPLED-  Ball-local fault connectivity at S_13+ over the        ``exp_sampled_fault``
FAULT     implicit backend (truncated-pair accounting)
SAMPLED-  Ball-local rerouting stretch at S_13+ (zero-fault      ``exp_sampled_stretch``
STRETCH   oracle, truncated-pair accounting)
RANKING   Simultaneous rank CIs across families (csranks)        ``exp_ranking``
========  =====================================================  =========================
"""

from repro._lazy import lazy_exports

#: The experiment modules, each imported on first access (PEP 562).
__all__ = [
    "exp_lemma1_no_dilation1",
    "exp_lemma2_transposition_distance",
    "exp_dilation",
    "exp_unit_route_simulation",
    "exp_star_properties",
    "exp_broadcast",
    "exp_uniform_mesh",
    "exp_optimal_dimension",
    "exp_sorting",
    "exp_star_vs_hypercube",
    "exp_network_family",
    "exp_fault_connectivity",
    "exp_fault_stretch",
    "exp_sampled_distance",
    "exp_sampled_properties",
    "exp_sampled_fault",
    "exp_sampled_stretch",
    "exp_ranking",
]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.{name}" for name in __all__}
)
