"""FIG5/FIG6 -- the conversion algorithms, replayed on the paper's worked examples.

Figures 5 and 6 give the pseudocode of ``CONVERT-D-S`` and ``CONVERT-S-D``;
Section 3.2 then walks through two examples:

* forward: mesh node ``(3, 0, 1)`` of ``D_4`` maps to star node ``0 3 1 2``
  via the exchange sequence ``(0 1); (2 3) (1 2) (0 1)``;
* inverse: star node ``(0 2 1 3)`` maps back to mesh node ``(3, 1, 1)`` via
  the reversed exchanges.

The experiment replays both examples step by step with the library's
implementations and reports every intermediate arrangement, asserting that the
final results (and the full round trip on every node of ``D_4``) match the
paper.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.embedding.mesh_to_star import convert_d_s, convert_s_d, exchange_sequence
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run", "forward_trace", "inverse_trace"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FIG5"]

Node = Tuple[int, ...]


def forward_trace(coords: Tuple[int, ...], n: int) -> List[Tuple[str, str, str]]:
    """Step-by-step trace of CONVERT-D-S: (dimension, exchange, arrangement)."""
    arrangement = list(range(n - 1, -1, -1))
    trace = [("start", "-", " ".join(map(str, arrangement)))]

    def swap(a: int, b: int) -> None:
        ia, ib = arrangement.index(a), arrangement.index(b)
        arrangement[ia], arrangement[ib] = arrangement[ib], arrangement[ia]

    for i in range(1, n):
        d_i = coords[n - 1 - i]
        for a, b in exchange_sequence(i, d_i):
            swap(a, b)
            trace.append((f"dim {i}", f"({a} {b})", " ".join(map(str, arrangement))))
        if d_i == 0:
            trace.append((f"dim {i}", "(none)", " ".join(map(str, arrangement))))
    return trace


def inverse_trace(perm: Tuple[int, ...]) -> List[Tuple[str, str, str]]:
    """Step-by-step trace of CONVERT-S-D: (dimension, exchange, arrangement)."""
    n = len(perm)
    arrangement = list(perm)
    trace = [("start", "-", " ".join(map(str, arrangement)))]

    def swap(a: int, b: int) -> None:
        ia, ib = arrangement.index(a), arrangement.index(b)
        arrangement[ia], arrangement[ib] = arrangement[ib], arrangement[ia]

    for i in range(n - 1, 0, -1):
        symbol_here = arrangement[n - 1 - i]
        d_i = i - symbol_here
        if d_i == 0:
            trace.append((f"dim {i} (d={d_i})", "(none)", " ".join(map(str, arrangement))))
        for t in range(symbol_here, i):
            swap(t, t + 1)
            trace.append((f"dim {i} (d={d_i})", f"({t} {t + 1})", " ".join(map(str, arrangement))))
    return trace


def run(n: int = 4) -> ExperimentResult:
    """Replay the Section 3.2 worked examples of the two conversion procedures."""
    forward_example = (3, 0, 1)
    inverse_example = (0, 2, 1, 3)

    rows: List[Tuple[str, str, str, str]] = []
    for stage, exchange, arrangement in forward_trace(forward_example, 4):
        rows.append(("CONVERT-D-S (3,0,1)", stage, exchange, arrangement))
    for stage, exchange, arrangement in inverse_trace(inverse_example):
        rows.append(("CONVERT-S-D (0 2 1 3)", stage, exchange, arrangement))

    forward_result = convert_d_s(forward_example, 4)
    inverse_result = convert_s_d(inverse_example)
    round_trip_ok = all(
        convert_s_d(convert_d_s(coords, n), n) == coords for coords in paper_mesh(n).nodes()
    )
    summary = {
        "convert_d_s((3,0,1))": " ".join(map(str, forward_result)),
        "paper_forward_expected": "0 3 1 2",
        "convert_s_d((0 2 1 3))": str(inverse_result),
        "paper_inverse_expected": "(3, 1, 1)",
        "round_trip_all_nodes": round_trip_ok,
        "claim_holds": forward_result == (0, 3, 1, 2)
        and inverse_result == (3, 1, 1)
        and round_trip_ok,
    }
    return ExperimentResult(
        experiment_id="FIG5",
        title="Figures 5 & 6: CONVERT-D-S / CONVERT-S-D on the paper's worked examples",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
        notes=[
            "The printed Figure-6 pseudocode's in-place index adjustment is garbled in the "
            "scanned report; the implementation follows the worked example in the text "
            "(see the module docstring of repro.embedding.mesh_to_star).",
        ],
    )
