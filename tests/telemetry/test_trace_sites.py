"""Every instrumented site emits schema-valid events -- and changes nothing.

Two contracts per layer:

* **Coverage** -- enabling the recorder around a representative call of each
  instrumented site (kernels, artifact store, sharded runner,
  simulation campaigns, pair sampling) produces events that pass
  :func:`repro.telemetry.validate_trace_events` and carry the documented
  names and attributes.
* **Parity** -- tracing is observation only: artifact payloads and keys are
  byte-identical with tracing on or off, serially and with ``jobs=2``.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.embedding.metrics import measure_embedding
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.runner import plan_shards, run_shards
from repro.simulation.campaign import connectivity_campaign, stretch_campaign
from repro.simulation.sampling import sampled_pair_distances
from repro.permutations.ranking import star_position_generators
from repro.simulation.sampled_campaign import (
    sampled_campaign_instances,
    sampled_fault_campaign,
)
from repro.topology.routing import (
    ImplicitNeighborSource,
    bounded_bfs_ball,
    index_bfs_distances,
    star_distances_from,
)
from repro.topology.star import StarGraph


@pytest.fixture(autouse=True)
def _clean_recorder(monkeypatch):
    monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def trace(tmp_path):
    """Enable tracing into a tmp file; yield a loader of validated events."""
    path = tmp_path / "trace.jsonl"
    telemetry.enable(path)

    def events():
        telemetry.disable()
        loaded = telemetry.load_trace(path)
        telemetry.validate_trace_events(loaded)
        return loaded

    yield events
    telemetry.disable()


def _by_name(events, name):
    return [e for e in events if e["name"] == name]


class TestKernelSites:
    def test_distance_sweep_span(self, trace):
        star_distances_from(tuple(range(5)))
        (event,) = _by_name(trace(), "kernel.distance_sweep")
        attrs = event["attrs"]
        assert attrs["degree"] == 5
        assert attrs["num_nodes"] == 120
        assert attrs["tier"] == "dense"
        assert "backend" not in attrs
        assert attrs["chunks"] >= 1

    def test_bfs_span_table_source(self, trace):
        star = StarGraph(4)
        index_bfs_distances(star.neighbor_index_table(), 0)
        (event,) = _by_name(trace(), "kernel.bfs")
        attrs = event["attrs"]
        assert attrs["num_nodes"] == 24
        assert attrs["neighbor_source"] == "table"
        assert attrs["masked"] is False
        assert "backend" not in attrs and "mode" not in attrs
        assert "chunk_nodes" not in attrs
        assert attrs["reached"] == 24
        assert attrs["chunks"] >= 1 and attrs["levels"] >= 1

    def test_bfs_span_implicit_source(self, trace):
        source = ImplicitNeighborSource(star_position_generators(4), 4)
        index_bfs_distances(source, 0)
        (event,) = _by_name(trace(), "kernel.bfs")
        assert event["attrs"]["neighbor_source"] == "implicit"

    def test_bounded_bfs_span_names_the_route(self, trace):
        source = ImplicitNeighborSource(star_position_generators(11), 11)
        healthy = bounded_bfs_ball(source, 4321, max_depth=2)
        faults = healthy.nodes_at(np.arange(1, 6))
        faulted = bounded_bfs_ball(source, 4321, max_depth=2, excluded=faults)
        swept = bounded_bfs_ball(StarGraph(5).neighbor_source(), 7, max_depth=2)
        events = _by_name(trace(), "kernel.bounded_bfs")
        routes = [(e["attrs"]["translated"], e["attrs"]["framed"]) for e in events]
        assert routes == [(True, False), (False, True), (False, False)]
        assert [e["attrs"]["excluded"] for e in events] == [0, 5, 0]
        assert [e["attrs"]["reached"] for e in events] == [
            healthy.size, faulted.size, swept.size
        ]

    def test_bfs_span_masked(self, trace):
        star = StarGraph(4)
        alive = np.ones(star.num_nodes, dtype=bool)
        alive[5] = False
        index_bfs_distances(star.neighbor_index_table(), 0, alive_mask=alive)
        (event,) = _by_name(trace(), "kernel.bfs")
        assert event["attrs"]["masked"] is True

    def test_embedding_tally_span(self, trace):
        # A fresh embedding: the edge data caches on the instance, so reused
        # fixtures would skip the instrumented build.
        measure_embedding(MeshToStarEmbedding(4))
        (event,) = _by_name(trace(), "kernel.embedding_tally")
        attrs = event["attrs"]
        assert attrs["degree"] == 4
        assert attrs["num_nodes"] == 24
        assert attrs["neighbor_source"] in ("table", "implicit")
        assert attrs["guest_edges"] > 0
        assert attrs["chunks"] >= 1
        assert "backend" not in attrs and "chunk_nodes" not in attrs


class TestRunnerSites:
    def test_shard_spans_and_store_counters(self, trace, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        shards = plan_shards(["FIG4", "LEM1"], profile="fast")
        first = run_shards(shards, store=store)
        assert not first.failed
        second = run_shards(shards, store=store)
        assert len(second.cached) == 2
        events = trace()

        spans = _by_name(events, "runner.shard")
        assert len(spans) == 4
        first_pass, second_pass = spans[:2], spans[2:]
        assert {e["attrs"]["status"] for e in first_pass} == {"ran"}
        assert {e["attrs"]["status"] for e in second_pass} == {"cached"}
        for event in first_pass:
            assert event["attrs"]["attempts"] == 1
            assert event["seconds"] > 0
        for event in second_pass:
            assert event["attrs"]["attempts"] == 0
            assert event["seconds"] == 0
        assert {e["attrs"]["experiment"] for e in first_pass} == {"FIG4", "LEM1"}

        assert len(_by_name(events, "store.miss")) == 2
        writes = _by_name(events, "store.write")
        assert len(writes) == 2
        assert all(e["attrs"]["bytes"] > 0 for e in writes)
        hits = _by_name(events, "store.hit")
        assert len(hits) == 2
        assert {e["attrs"]["key"] for e in hits} == {s.key for s in shards}

    def test_metrics_uniform_across_paths(self, tmp_path):
        shards = plan_shards(["FIG4"], profile="fast")
        store = ArtifactStore(tmp_path / "results")
        reports = {
            "no_store": run_shards(shards),
            "fresh": run_shards(shards, store=store),
            "all_cached": run_shards(shards, store=store),
            "parallel": run_shards(plan_shards(["FIG4", "LEM1"], "fast"), jobs=2),
        }
        for label, report in reports.items():
            metrics = report.metrics
            assert set(metrics) == {
                "shards",
                "ran",
                "cached",
                "failed",
                "retries",
                "elapsed_seconds",
                "shard_timings",
            }, label
            assert metrics["shards"] == len(metrics["shard_timings"])
            assert metrics["elapsed_seconds"] == report.elapsed_seconds
            assert report.elapsed_seconds >= 0
            for timing in metrics["shard_timings"]:
                assert timing["status"] in ("ran", "cached", "failed")
        assert reports["all_cached"].metrics["cached"] == 1
        (timing,) = reports["all_cached"].metrics["shard_timings"]
        assert timing["status"] == "cached"
        assert timing["seconds"] == 0.0 and timing["attempts"] == 0


class TestCampaignSites:
    def test_connectivity_point_span_and_gauge(self, trace):
        connectivity_campaign(
            StarGraph(4), fault_counts=[2, 4], trials=10, seed=7, label="s4"
        )
        events = trace()
        points = _by_name(events, "campaign.connectivity_point")
        assert [e["attrs"]["fault_count"] for e in points] == [2, 4]
        for event in points:
            assert event["attrs"]["family"] == "s4"
            assert event["attrs"]["trials"] == 10
            assert event["attrs"]["disconnected"] >= 0
        gauges = _by_name(events, "campaign.trials_per_second")
        assert len(gauges) == 2
        assert all(e["value"] > 0 for e in gauges)

    def test_stretch_point_span(self, trace):
        stretch_campaign(
            StarGraph(4),
            fault_counts=[2],
            trials=3,
            pairs_per_trial=2,
            seed=7,
            label="s4",
        )
        events = trace()
        (point,) = _by_name(events, "campaign.stretch_point")
        assert point["attrs"]["pairs"] >= 0
        assert point["attrs"]["unreachable"] >= 0
        assert _by_name(events, "campaign.trials_per_second")

    def test_sampling_pairs_span_and_rate(self, trace):
        sampled_pair_distances("star", 5, 200, 3)
        events = trace()
        (event,) = _by_name(events, "sampling.pairs")
        assert event["attrs"]["family"] == "star"
        assert event["attrs"]["samples"] == 200
        (gauge,) = _by_name(events, "sampling.samples_per_second")
        assert gauge["value"] > 0


class TestTracingChangesNothing:
    """The standing parity contract: traces observe, payloads never move."""

    def _payloads(self, report):
        return [
            json.dumps(
                {"key": record["key"], "payload": record["payload"]},
                sort_keys=True,
            )
            for record in report.records
        ]

    def test_payloads_identical_traced_vs_untraced(self, tmp_path):
        shards = plan_shards(["FIG4", "LEM1"], profile="fast")
        untraced = self._payloads(run_shards(shards))

        telemetry.enable(tmp_path / "serial.jsonl")
        traced = self._payloads(run_shards(shards))
        telemetry.disable()
        assert traced == untraced

        telemetry.enable(tmp_path / "jobs2.jsonl")
        parallel = self._payloads(run_shards(shards, jobs=2))
        telemetry.disable()
        assert parallel == untraced

    def test_kernel_results_identical_traced(self, tmp_path):
        untraced = np.asarray(star_distances_from(tuple(range(5))))
        telemetry.enable(tmp_path / "k.jsonl")
        traced = np.asarray(star_distances_from(tuple(range(5))))
        telemetry.disable()
        assert np.array_equal(traced, untraced)

    def test_sampled_fault_campaign_identical_traced(self, tmp_path):
        _, topology = sampled_campaign_instances(11)["star"]
        kwargs = dict(
            fault_counts=(0, 4), trials=3, pairs_per_trial=3, depth=3,
            seed=5, label="parity",
        )
        untraced = sampled_fault_campaign(topology, **kwargs)
        telemetry.enable(tmp_path / "s.jsonl")
        traced = sampled_fault_campaign(topology, **kwargs)
        telemetry.disable()
        assert traced == untraced

    def test_campaign_results_identical_traced(self, tmp_path):
        kwargs = dict(fault_counts=[3], trials=10, seed=5, label="parity")
        untraced = connectivity_campaign(StarGraph(4), **kwargs)
        telemetry.enable(tmp_path / "c.jsonl")
        traced = connectivity_campaign(StarGraph(4), **kwargs)
        telemetry.disable()
        assert traced == untraced
