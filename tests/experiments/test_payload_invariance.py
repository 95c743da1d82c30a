"""Sampled-experiment payloads never depend on how adjacency is served.

``run <ID> --fast --json`` must write the same bytes whatever the chunk size
and whichever adjacency source the graphs hand out.  Three perturbations are
held against the default run of each sampled experiment:

* :data:`repro.permutations.ranking.CHUNK_NODES` patched to 1, so every BFS
  level, truncation-probe block and sample block is one row;
* :func:`repro.topology.routing.permutation_neighbor_source` patched to
  always serve :class:`~repro.topology.routing.ImplicitNeighborSource`, so
  even the table degrees run on ``unrank -> generator -> rank`` blocks;
* the retired ``REPRO_NEIGHBORS`` / ``REPRO_CHUNK_NODES`` variables set to
  values nothing accepts -- nothing reads them any more.
"""

import pytest

from repro.experiments.cli import main
from repro.permutations import ranking
from repro.topology import routing
from repro.topology.star import StarGraph

EXPERIMENTS = (
    "SAMPLED-FAULT",
    "SAMPLED-STRETCH",
    "SAMPLED-DISTANCE",
    "SAMPLED-PROPERTIES",
    "RANKING",
)


def _payload(experiment_id, directory, label):
    path = directory / f"{experiment_id}-{label}.json"
    assert main(["run", experiment_id, "--fast", "--json", str(path)]) == 0
    return path.read_bytes()


@pytest.fixture(scope="module")
def reference_payloads(tmp_path_factory):
    directory = tmp_path_factory.mktemp("payloads")
    return {
        experiment_id: _payload(experiment_id, directory, "default")
        for experiment_id in EXPERIMENTS
    }


def _always_implicit(generators, n, table_supplier):
    return routing.ImplicitNeighborSource(generators, n)


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_chunk_of_one_row_writes_the_same_bytes(
    experiment_id, reference_payloads, tmp_path, monkeypatch
):
    monkeypatch.setattr(ranking, "CHUNK_NODES", 1)
    payload = _payload(experiment_id, tmp_path, "chunk-1")
    assert payload == reference_payloads[experiment_id]


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_forced_implicit_source_writes_the_same_bytes(
    experiment_id, reference_payloads, tmp_path, monkeypatch
):
    monkeypatch.setattr(routing, "permutation_neighbor_source", _always_implicit)
    assert StarGraph(5).neighbor_source().table is None
    payload = _payload(experiment_id, tmp_path, "implicit")
    assert payload == reference_payloads[experiment_id]


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_retired_variables_write_the_same_bytes(
    experiment_id, reference_payloads, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_NEIGHBORS", "magic")
    monkeypatch.setenv("REPRO_CHUNK_NODES", "0")
    payload = _payload(experiment_id, tmp_path, "retired-variables")
    assert payload == reference_payloads[experiment_id]
