"""Regeneration of the paper's figures and tables.

One module per artefact:

========  ======================================================  ==================
ID        Paper artefact                                          Module
========  ======================================================  ==================
FIG2      Figure 2 -- the star graph of degree 3 (``S_4``)        ``figure2_star_graph``
FIG3      Figure 3 -- the ``2*3*4`` mesh                          ``figure3_mesh``
FIG4      Figure 4 -- example embedding of a 4-cycle              ``figure4_example_embedding``
FIG5/6    Figures 5/6 -- the conversion algorithms (worked runs)  ``figure5_6_conversions``
FIG7      Figure 7 -- the complete ``V(D_4) -> V(S_4)`` map       ``figure7_mapping_table``
TAB1      Table 1 -- per-dimension exchange sequences             ``table1_exchange_sequences``
========  ======================================================  ==================
"""

from repro._lazy import lazy_exports

#: The experiment modules, each imported on first access (PEP 562).
__all__ = [
    "figure2_star_graph",
    "figure3_mesh",
    "figure4_example_embedding",
    "figure5_6_conversions",
    "figure7_mapping_table",
    "table1_exchange_sequences",
]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.{name}" for name in __all__}
)
