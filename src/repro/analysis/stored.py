"""Analysis over *stored* experiment rows -- no re-running required.

Before the artifact store, every analysis consumer had to call an
experiment's ``run()`` to get at its measured rows.  With a persistent store
(``repro-star run all --out results/``) the rows are on disk; this module
reads them back as :class:`~repro.experiments.report.ExperimentResult`
objects and typed row views, so notebooks, comparison tables and the docs
results page all work from one recorded run.

Functions
---------
:func:`load_results`
    Every stored result, keyed by ``(experiment_id, profile)``.
:func:`stored_result`
    One experiment's result from the store (profile-filtered).
:func:`stored_rows`
    The ``(headers, rows)`` of one stored experiment table.
:func:`claim_summary`
    ``experiment_id -> claim_holds`` over the whole store -- the one-line
    answer to "does the stored run still verify the paper?".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ArtifactError
from repro.experiments.artifacts import ArtifactStore, claim_verdict
from repro.experiments.report import ExperimentResult, result_from_payload
from repro.experiments.runner import registry_sorted

__all__ = [
    "load_results",
    "stored_result",
    "stored_rows",
    "claim_summary",
]


def _store(store) -> ArtifactStore:
    return store if isinstance(store, ArtifactStore) else ArtifactStore(store)


def load_results(store) -> Dict[Tuple[str, str], ExperimentResult]:
    """Load every stored artifact as an :class:`ExperimentResult`.

    Parameters
    ----------
    store : ArtifactStore or path-like
        The store (or its directory) written by ``repro-star run --out``.

    Returns
    -------
    dict
        ``(experiment_id, profile) -> ExperimentResult`` in registry order.
        When a store holds several parameterisations of the same
        ``(experiment, profile)`` pair the one with the lexicographically
        smallest key wins (a plain ``run all`` store has exactly one each).
    """
    results: Dict[Tuple[str, str], ExperimentResult] = {}
    for record in registry_sorted(_store(store).entries()):
        payload = record["payload"]
        address = (payload["experiment_id"], payload["profile"])
        if address not in results:
            results[address] = result_from_payload(payload)
    return results


def stored_result(
    store, experiment_id: str, profile: Optional[str] = None
) -> ExperimentResult:
    """One experiment's stored result.

    Parameters
    ----------
    store : ArtifactStore or path-like
        The artifact store.
    experiment_id : str
        Registry identifier (case-insensitive).
    profile : str, optional
        Required profile; ``None`` accepts any (registry-sorted first wins).

    Returns
    -------
    ExperimentResult
        The recorded result, equivalent to re-running the experiment at the
        stored parameters.

    Raises
    ------
    ArtifactError
        If the store holds no matching artifact.
    """
    wanted = experiment_id.upper()
    for (stored_id, stored_profile), result in load_results(store).items():
        if stored_id == wanted and profile in (None, stored_profile):
            return result
    raise ArtifactError(
        f"no stored artifact for experiment {experiment_id!r}"
        + (f" at profile {profile!r}" if profile else "")
        + f" in {_store(store).root}"
    )


def stored_rows(
    store, experiment_id: str, profile: Optional[str] = None
) -> Tuple[List[str], List[Sequence[object]]]:
    """The ``(headers, rows)`` of one stored experiment table.

    A convenience wrapper over :func:`stored_result` for consumers that only
    want the measured table (comparison builders, plotting).
    """
    result = stored_result(store, experiment_id, profile)
    return list(result.headers), [list(row) for row in result.rows]


def claim_summary(store) -> Dict[str, bool]:
    """Whether each stored experiment's paper claim holds.

    Returns
    -------
    dict
        ``experiment_id -> claim_holds`` (a missing summary key counts as a
        failed claim, :func:`~repro.experiments.artifacts.claim_verdict`).
        When a store holds several profiles of one experiment, the claim
        must hold in all of them.
    """
    verdicts: Dict[str, bool] = {}
    for (stored_id, _profile), result in load_results(store).items():
        holds = claim_verdict(result.summary)
        verdicts[stored_id] = verdicts.get(stored_id, True) and holds
    return verdicts
