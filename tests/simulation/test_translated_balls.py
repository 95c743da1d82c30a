"""Bounded balls by vertex symmetry, held against the sweep.

Star, pancake, bubble-sort and transposition-tree graphs are Cayley graphs,
so :func:`repro.topology.routing.bounded_bfs_ball` answers an exclusion-free
call on the implicit packed-key source by relabelling one cached identity
ball with the origin's permutation, and a call with exclusions by flooding
the identity ball's cached local adjacency with the faults relabelled into
the identity's frame.  Both kinds are one lazy ball over one cached
identity entry (``_identity_ball``) that holds its keys once.  These tests
hold both kinds against the table-backed sweep (n = 5..9, up to whole-graph
balls) and against the private frontier sweep ``_sweep_ball`` (n = 5..15),
field by field, and pin down which calls must keep sweeping: tables,
n = 16, a depth the spare nibbles cannot hold and sources that override
their adjacency.  The exclusion-order cases cover the refusal of an
excluded origin on both the swept and the framed path, and the input-check
cases the one check every path shares.
"""

import itertools

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations import ranking
from repro.permutations.ranking import (
    _key_byte_columns,
    pack_permutations,
    star_position_generators,
    translate_packed_keys,
)
from repro.simulation.sampled_campaign import (
    SAMPLED_CAMPAIGN_FAMILIES,
    sampled_campaign_instances,
    sampled_fault_campaign,
)
from repro.topology import routing
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionTreeGraph,
)
from repro.topology.routing import (
    ImplicitNeighborSource,
    _identity_ball,
    _sweep_ball,
    _translates,
    bounded_bfs_ball,
    index_bfs_distances,
)
from repro.topology.star import StarGraph


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return TranspositionTreeGraph(
        n, tuple((int(rng.integers(0, i)), i) for i in range(1, n))
    )


def _graph(family, n):
    if family == "star":
        return StarGraph(n)
    if family == "pancake":
        return PancakeGraph(n)
    if family == "bubble-sort":
        return BubbleSortGraph(n)
    return _random_tree(n, seed=n)


def _generators(family, n):
    if family == "star":
        return star_position_generators(n)
    return _graph(family, n).generators


def _assert_identical(ball, oracle, same_source=True):
    if same_source:  # a table ball's keys are node indices, not packed keys
        assert ball.keys.dtype == oracle.keys.dtype
        assert np.array_equal(ball.keys, oracle.keys)
    assert np.array_equal(ball.nodes, oracle.nodes)
    assert ball.distances.dtype == np.int64 == oracle.distances.dtype
    assert np.array_equal(ball.distances, oracle.distances)
    assert ball.truncated is oracle.truncated
    assert ball.levels == oracle.levels
    assert ball.size == oracle.size


@pytest.fixture
def sweeps(monkeypatch):
    """Record every ``_sweep_ball`` call as ``(origin, excluded count)``."""
    calls = []

    def counting(source, origin_index, max_depth, excluded=None):
        calls.append((origin_index, 0 if excluded is None else len(excluded)))
        return _sweep_ball(source, origin_index, max_depth, excluded)

    monkeypatch.setattr(routing, "_sweep_ball", counting)
    _identity_ball.cache_clear()
    yield calls
    _identity_ball.cache_clear()


class TestTranslatePackedKeys:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 13, 15, 16])
    def test_left_multiplication_of_packed_keys(self, n):
        rng = np.random.default_rng(n)
        taus = np.array([rng.permutation(n) for _ in range(50)], dtype=np.int8)
        perm = rng.permutation(n)
        keys = pack_permutations(taus)
        columns = _key_byte_columns(keys, n)
        assert len(columns) == (n + 1) // 2
        assert all(column.dtype == np.uint8 for column in columns)
        expected = pack_permutations(perm[taus])
        assert np.array_equal(translate_packed_keys(columns, perm), expected)


class TestAgainstTableBalls:
    """Relabelled balls equal table-swept balls, up to the whole graph."""

    @pytest.mark.parametrize(
        "family", SAMPLED_CAMPAIGN_FAMILIES + ("transposition-tree",)
    )
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_every_depth_through_the_whole_graph(self, family, n, sweeps):
        graph = _graph(family, n)
        table_source = graph.neighbor_source()
        assert table_source.table is not None
        implicit = ImplicitNeighborSource(_generators(family, n), n)
        rng = np.random.default_rng(97 * n + len(family))
        origins = [int(o) for o in rng.integers(graph.num_nodes, size=2)]
        eccentricity = int(index_bfs_distances(table_source, origins[0]).max())
        # Whole-graph balls at n = 9 are costly; there the shallow depths
        # and the two around the eccentricity cover every branch.
        depths = range(eccentricity + 2)
        if n == 9:
            depths = sorted({0, 1, 2, 3, eccentricity, eccentricity + 1})
        for depth in depths:
            for origin in origins:
                oracle = bounded_bfs_ball(table_source, origin, max_depth=depth)
                ball = bounded_bfs_ball(implicit, origin, max_depth=depth)
                assert ball.keys.dtype == np.uint64
                _assert_identical(ball, oracle, same_source=False)
            assert oracle.truncated == (depth < eccentricity)
        assert not oracle.truncated and oracle.size == graph.num_nodes
        # The table balls swept; the implicit ones swept the identity once
        # per depth and translated it to both origins.
        assert len(sweeps) == len(depths) * (len(origins) + 1)
        assert _identity_ball.cache_info().misses == len(depths)


class TestAgainstTheSweep:
    @pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
    @pytest.mark.parametrize("n", [11, 12, 13, 14, 15])
    def test_seeded_origins_depths_0_to_4(self, family, n):
        source = ImplicitNeighborSource(_generators(family, n), n)
        rng = np.random.default_rng(n * 7 + len(family))
        origins = [0, source.num_nodes - 1] + [
            int(o) for o in rng.integers(source.num_nodes, size=2)
        ]
        for depth in range(5):
            assert _translates(source, depth)
            for origin in origins:
                _assert_identical(
                    bounded_bfs_ball(source, origin, max_depth=depth),
                    _sweep_ball(source, origin, depth),
                )


class TestWhoKeepsSweeping:
    def test_degree_16_sweeps(self, sweeps):
        source = ImplicitNeighborSource(star_position_generators(16), 16)
        assert not _translates(source, 0)
        ball = bounded_bfs_ball(source, 10**12, max_depth=2)
        assert sweeps == [(10**12, 0)]
        assert ball.size == 1 + 15 + 15 * 14 and ball.truncated

    def test_spare_nibbles_must_hold_the_depth(self):
        fifteen = ImplicitNeighborSource(star_position_generators(15), 15)
        assert _translates(fifteen, 15) and not _translates(fifteen, 16)
        fourteen = ImplicitNeighborSource(star_position_generators(14), 14)
        assert _translates(fourteen, 255) and not _translates(fourteen, 256)

    def test_rank_keyed_degrees_sweep(self, sweeps):
        source = ImplicitNeighborSource(star_position_generators(17), 17)
        assert not _translates(source, 1)
        bounded_bfs_ball(source, 5, max_depth=1)
        assert sweeps == [(5, 0)]

    def test_exclusions_flood_the_identity_frame(self, sweeps):
        source = ImplicitNeighborSource(star_position_generators(13), 13)
        healthy = bounded_bfs_ball(source, 4242, max_depth=2)
        faults = healthy.nodes_at(np.flatnonzero(healthy.distances == 2)[:3])
        faulted = bounded_bfs_ball(source, 4242, max_depth=2, excluded=faults)
        # The identity was swept once, for the healthy ball; the faulted
        # ball flooded the adjacency built on the same entry.
        assert sweeps == [(0, 0)]
        info = _identity_ball.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _identity_ball(source.generators, 13, 2)._adjacency is not None
        assert faulted.size == healthy.size - 3
        assert np.array_equal(faulted.distance_of(faults), [-1, -1, -1])
        _assert_identical(faulted, _sweep_ball(source, 4242, 2, faults))
        # An empty exclusion array is no exclusion at all.
        bounded_bfs_ball(source, 4242, max_depth=2, excluded=np.empty(0, np.int64))
        assert sweeps == [(0, 0)] and _identity_ball.cache_info().currsize == 1

    def test_table_sources_sweep(self, sweeps):
        bounded_bfs_ball(StarGraph(6).neighbor_source(), 17, max_depth=3)
        assert sweeps == [(17, 0)]

    @pytest.mark.parametrize("method", ["neighbor_block", "neighbor_keys", "encode"])
    def test_sources_that_override_adjacency_sweep(self, method, sweeps):
        parent = getattr(ImplicitNeighborSource, method)

        def override(self, *args, **kwargs):
            return parent(self, *args, **kwargs)

        kind = type("Overriding", (ImplicitNeighborSource,), {method: override})
        source = kind(star_position_generators(11), 11)
        assert not _translates(source, 3)
        ball = bounded_bfs_ball(source, 99, max_depth=3)
        assert sweeps == [(99, 0)]
        plain = ImplicitNeighborSource(star_position_generators(11), 11)
        _assert_identical(ball, bounded_bfs_ball(plain, 99, max_depth=3))

    def test_subclass_that_only_observes_decoding_translates(self, sweeps):
        class Decoding(ImplicitNeighborSource):
            def decode(self, keys):
                return super().decode(keys)

        source = Decoding(star_position_generators(11), 11)
        assert _translates(source, 3)
        bounded_bfs_ball(source, 99, max_depth=3)
        assert sweeps == [(0, 0)]


class TestIdentityCache:
    def test_cached_arrays_are_compact_and_read_only(self, sweeps):
        n = 13
        source = ImplicitNeighborSource(star_position_generators(n), n)
        bounded_bfs_ball(source, 12345, max_depth=4)
        entry = _identity_ball(source.generators, n, 4)
        assert entry.keys.dtype == np.uint64 and entry.levels.dtype == np.uint8
        assert entry.truncated is True and entry.deepest == 4
        assert entry.keys.size == entry.levels.size == 14511
        assert np.all(entry.keys[1:] > entry.keys[:-1])
        for array in (entry.keys, entry.levels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        # Mutating a returned ball leaves the cache and later balls intact.
        ball = bounded_bfs_ball(source, 12345, max_depth=4)
        reference = ball.keys.copy()
        ball.keys[:] = 0
        ball.distances[:] = 0
        _assert_identical(
            bounded_bfs_ball(source, 12345, max_depth=4),
            _sweep_ball(source, 12345, 4),
        )
        assert np.array_equal(
            bounded_bfs_ball(source, 12345, max_depth=4).keys, reference
        )

    @pytest.mark.parametrize("depth", [2, 3])
    def test_a_campaign_sweeps_each_identity_once(self, depth, sweeps):
        trials = 5
        for family, (_, topology) in sampled_campaign_instances(11).items():
            assert topology.neighbor_source().table is None
            sampled_fault_campaign(
                topology,
                fault_counts=(0, 4),
                trials=trials,
                pairs_per_trial=3,
                depth=depth,
                seed=7,
                label=f"{family}/11",
            )
        # Per family: one identity sweep, whose entry also gained the
        # adjacency the faulted balls flood; no faulted ball sweeps.
        families = len(SAMPLED_CAMPAIGN_FAMILIES)
        assert sweeps == [(0, 0)] * families
        # Every ball read the one cache: 2 * trials healthy balls and
        # trials faulted ones per family, of which the first missed.
        info = _identity_ball.cache_info()
        assert info.misses == families
        assert info.hits == families * (3 * trials - 1)
        for _, topology in sampled_campaign_instances(11).values():
            source = topology.neighbor_source()
            entry = _identity_ball(source.generators, 11, depth)
            assert entry._adjacency is not None

    def test_a_healthy_only_campaign_builds_no_adjacency(self, sweeps):
        for family, (_, topology) in sampled_campaign_instances(11).items():
            sampled_fault_campaign(
                topology,
                fault_counts=(0,),
                trials=4,
                pairs_per_trial=3,
                depth=3,
                seed=11,
                label=f"{family}/11",
            )
        families = len(SAMPLED_CAMPAIGN_FAMILIES)
        assert sweeps == [(0, 0)] * families
        assert _identity_ball.cache_info().currsize == families
        for _, topology in sampled_campaign_instances(11).values():
            source = topology.neighbor_source()
            assert _identity_ball(source.generators, 11, 3)._adjacency is None

    def test_the_s13_depth4_star_entry_holds_its_keys_once(self, sweeps):
        n, depth = 13, 4
        source = ImplicitNeighborSource(star_position_generators(n), n)
        healthy = bounded_bfs_ball(source, 12345, max_depth=depth)
        bounded_bfs_ball(
            source, 12345, max_depth=depth, excluded=healthy.nodes_at([1, 2, 3])
        )
        entry = _identity_ball(source.generators, n, depth)
        assert entry._adjacency is not None
        arrays = []
        for name in type(entry).__slots__:
            value = getattr(entry, name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
        # Keys, levels, rows, row_of and parents -- no second copy of the
        # keys in any form.
        assert len(arrays) == 5
        assert [a for a in arrays if a.nbytes >= entry.keys.nbytes] == [entry.keys]
        assert all(a.base is None for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 210_876


def _faults(rng, source, healthy, origin, depth):
    """Unsorted faults with repeats: inside the ball, at its cap, past it."""
    inner = np.flatnonzero(healthy.distances > 0)
    drawn = healthy.nodes_at(rng.choice(inner, size=min(12, inner.size), replace=False))
    rim = healthy.nodes_at(np.flatnonzero(healthy.distances == depth)[:3])
    past = source.neighbor_block(rim).reshape(-1)
    past = rng.choice(past, size=past.size // 2, replace=False)
    faults = np.concatenate(
        [drawn, drawn[:2], past, rng.integers(source.num_nodes, size=3)]
    )
    return rng.permutation(faults[faults != origin])


def _assert_framed(source, origin, depth, faults, rng):
    """The framed ball equals the excluded sweep, field by field."""
    ball = bounded_bfs_ball(source, origin, max_depth=depth, excluded=faults)
    oracle = _sweep_ball(source, origin, depth, faults)
    # Read distances before anything relabels the ball into the origin's
    # frame: targets inside the ball, faults and nodes from anywhere.
    targets = np.concatenate(
        [oracle.nodes[:: max(1, oracle.size // 20)], faults,
         rng.integers(source.num_nodes, size=5)]
    )
    assert np.array_equal(ball.distance_of(targets), oracle.distance_of(targets))
    positions = rng.integers(oracle.size, size=6)
    assert np.array_equal(ball.nodes_at(positions), oracle.nodes_at(positions))
    _assert_identical(ball, oracle)
    return ball


class TestFaultedBalls:
    """Faulted balls flooded in the identity's frame equal the excluded sweep."""

    @pytest.mark.parametrize(
        "family", SAMPLED_CAMPAIGN_FAMILIES + ("transposition-tree",)
    )
    @pytest.mark.parametrize("n", range(5, 16))
    def test_seeded_origins_depths_0_to_4(self, family, n, sweeps):
        source = ImplicitNeighborSource(_generators(family, n), n)
        rng = np.random.default_rng(31 * n + len(family))
        origins = [int(o) for o in rng.integers(source.num_nodes, size=2)]
        for depth in range(5):
            assert _translates(source, depth)
            for origin in origins:
                healthy = bounded_bfs_ball(source, origin, max_depth=depth)
                faults = _faults(rng, source, healthy, origin, depth)
                _assert_framed(source, origin, depth, faults, rng)
        # Only the identity balls swept; every faulted ball was flooded.
        assert sweeps == [(0, 0)] * 5
        assert _identity_ball.cache_info().misses == 5

    @pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
    def test_every_origin_neighbour_disconnects(self, family):
        source = ImplicitNeighborSource(_generators(family, 13), 13)
        origin = 987654321
        neighbours = source.neighbor_block([origin]).reshape(-1)
        for depth in range(5):
            ball = _assert_framed(
                source, origin, depth, neighbours, np.random.default_rng(depth)
            )
            # A disconnection, not a truncation: the ball is the origin.
            assert ball.size == 1 and ball.levels == 0 and not ball.truncated
            assert (ball.distance_of(neighbours) == -1).all()

    @pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
    @pytest.mark.parametrize("n", [5, 6])
    def test_faults_past_the_cap_decide_truncation(self, family, n):
        # Excluding the whole shell one level past the cap leaves nothing
        # to escape to, though no fault lies in the healthy ball.
        source = ImplicitNeighborSource(_generators(family, n), n)
        origin = 7
        for depth in range(4):
            ring = _sweep_ball(source, origin, depth + 1)
            shell = ring.nodes[ring.distances == depth + 1]
            ball = _assert_framed(source, origin, depth, shell, np.random.default_rng(n))
            assert not ball.truncated
            assert ball.size == ring.size - shell.size
            assert np.array_equal(ball.nodes, ring.nodes[ring.distances <= depth])

    def test_excluded_origin_and_out_of_range_faults_raise(self):
        source = ImplicitNeighborSource(star_position_generators(13), 13)
        assert _translates(source, 3)
        with pytest.raises(InvalidParameterError, match="excluded"):
            bounded_bfs_ball(source, 42, max_depth=3, excluded=np.array([9, 42, 9]))
        for bad in (-1, source.num_nodes):
            with pytest.raises(InvalidParameterError, match="must lie in"):
                bounded_bfs_ball(source, 42, max_depth=3, excluded=np.array([9, bad]))

    def test_frame_is_compact_read_only_and_built_on_faults_only(self, sweeps):
        n, depth = 13, 4
        source = ImplicitNeighborSource(star_position_generators(n), n)
        healthy = bounded_bfs_ball(source, 12345, max_depth=depth)
        frame = _identity_ball(source.generators, n, depth)
        assert frame._adjacency is None
        faults = healthy.nodes_at(np.arange(1, 17))
        bounded_bfs_ball(source, 12345, max_depth=depth, excluded=faults)
        assert _identity_ball.cache_info().currsize == 1
        rows, row_of, parents = frame._adjacency
        levels = frame.levels
        below = int((levels < depth).sum())
        assert frame.keys.dtype == np.uint64 and frame.keys.size == 14511
        assert np.all(frame.keys[1:] > frame.keys[:-1])
        # Rows only below the cap, in the narrowest signed type.
        assert rows.shape == (below, n - 1) and rows.dtype == np.int16
        assert row_of.dtype == np.int16
        assert np.array_equal(np.flatnonzero(row_of >= 0), np.flatnonzero(levels < depth))
        # Parents: each cap-level node's neighbours one level nearer.
        cap = np.flatnonzero(levels == depth)
        neighbours, inside = frame.locate(source.neighbor_keys(frame.keys[cap]))
        nearer = inside & (levels[neighbours] == depth - 1)
        assert np.array_equal(parents[cap], nearer.sum(axis=1))
        assert np.array_equal(parents > 0, levels == depth)
        for array in (frame.keys, rows, row_of, parents):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_mutating_a_ball_leaves_the_frame_intact(self):
        source = ImplicitNeighborSource(star_position_generators(13), 13)
        healthy = bounded_bfs_ball(source, 555, max_depth=3)
        faults = healthy.nodes_at(np.arange(2, 40, 3))
        ball = bounded_bfs_ball(source, 555, max_depth=3, excluded=faults)
        reference = ball.keys.copy()
        ball.keys[:] = 0
        ball.distances[:] = 0
        again = bounded_bfs_ball(source, 555, max_depth=3, excluded=faults)
        _assert_identical(again, _sweep_ball(source, 555, 3, faults))
        assert np.array_equal(again.keys, reference)

    def test_a_chunk_of_one_gives_the_same_balls(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = []
        for family in SAMPLED_CAMPAIGN_FAMILIES:
            source = ImplicitNeighborSource(_generators(family, 11), 11)
            origin = int(rng.integers(source.num_nodes))
            for depth in (1, 3):
                healthy = bounded_bfs_ball(source, origin, max_depth=depth)
                faults = _faults(rng, source, healthy, origin, depth)
                reference = bounded_bfs_ball(
                    source, origin, max_depth=depth, excluded=faults
                )
                cases.append((source, origin, depth, faults, reference))
        monkeypatch.setattr(ranking, "CHUNK_NODES", 1)
        _identity_ball.cache_clear()
        for source, origin, depth, faults, reference in cases:
            ball = bounded_bfs_ball(source, origin, max_depth=depth, excluded=faults)
            _assert_identical(ball, reference)
        _identity_ball.cache_clear()


class TestExclusionOrder:
    """An excluded origin is refused whatever order the exclusions come in."""

    @staticmethod
    def _sources():
        return (
            ImplicitNeighborSource(star_position_generators(13), 13),
            StarGraph(6).neighbor_source(),
        )

    @pytest.mark.parametrize("which", [0, 1])
    def test_excluded_origin_is_refused_in_every_order(self, which):
        source = self._sources()[which]
        origin = 5
        for order in itertools.permutations([100, origin, 3, 77]):
            with pytest.raises(InvalidParameterError, match="excluded"):
                bounded_bfs_ball(
                    source, origin, max_depth=2, excluded=np.array(order)
                )
        with pytest.raises(InvalidParameterError, match="excluded"):
            bounded_bfs_ball(source, origin, max_depth=2, excluded=np.array([100, 5]))

    @pytest.mark.parametrize("which", [0, 1])
    def test_shuffled_exclusions_give_the_identical_ball(self, which):
        source = self._sources()[which]
        origin = 321
        healthy = bounded_bfs_ball(source, origin, max_depth=3)
        rng = np.random.default_rng(13 + which)
        inner = np.flatnonzero(healthy.distances >= 1)
        faults = healthy.nodes_at(rng.choice(inner, size=20, replace=False))
        reference = bounded_bfs_ball(
            source, origin, max_depth=3, excluded=np.sort(faults)
        )
        assert reference.size < healthy.size
        for _ in range(4):
            shuffled = rng.permutation(faults)
            assert not np.array_equal(shuffled, np.sort(faults))
            _assert_identical(
                bounded_bfs_ball(source, origin, max_depth=3, excluded=shuffled),
                reference,
            )


class TestInputChecks:
    """One input check at the kernel's entry, the same on every path.

    Python and NumPy integers are accepted for the origin, the depth and the
    exclusions; bools and non-integers are refused rather than truncated.
    """

    @staticmethod
    def _case(kind):
        """``(source, origin, depth, excluded)`` reaching one path of the kernel."""
        if kind == "table":
            return StarGraph(7).neighbor_source(), 3, 2, None
        if kind == "n = 16":
            source = ImplicitNeighborSource(star_position_generators(16), 16)
            return source, 10**12, 1, None
        source = ImplicitNeighborSource(star_position_generators(7), 7)
        if kind == "implicit healthy":
            return source, 3, 2, None
        return source, 3, 2, np.array([1, 100, 4000])

    KINDS = ("table", "implicit healthy", "implicit faulted", "n = 16")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("integer", [np.int64, np.uint64, int])
    def test_numpy_integers_give_the_python_int_ball(self, kind, integer):
        source, origin, depth, excluded = self._case(kind)
        reference = bounded_bfs_ball(source, origin, max_depth=depth, excluded=excluded)
        if excluded is not None:
            excluded = excluded.astype(np.dtype(integer))
        ball = bounded_bfs_ball(
            source, integer(origin), max_depth=integer(depth), excluded=excluded
        )
        _assert_identical(ball, reference)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("depth", [2.5, 2.0, np.float64(2), True, "2", None, [2]])
    def test_non_integer_depths_raise(self, kind, depth):
        source, origin, _, excluded = self._case(kind)
        with pytest.raises(InvalidParameterError, match="max_depth must be an integer"):
            bounded_bfs_ball(source, origin, max_depth=depth, excluded=excluded)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("origin", [3.0, np.float64(3), True, np.bool_(True), "3"])
    def test_non_integer_origins_raise(self, kind, origin):
        source, _, depth, excluded = self._case(kind)
        with pytest.raises(InvalidParameterError, match="origin index must be an integer"):
            bounded_bfs_ball(source, origin, max_depth=depth, excluded=excluded)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "excluded",
        [
            np.array([1.7]),
            np.array([1.0]),
            np.array([True]),
            np.array([5, True], dtype=object),
            np.array([1, 2.5], dtype=object),
            # NumPy promotes these plain lists to int64; the bools must still be seen.
            [True, 5],
            [5, np.bool_(True)],
        ],
    )
    def test_non_integer_exclusions_raise(self, kind, excluded):
        source, origin, depth, _ = self._case(kind)
        with pytest.raises(InvalidParameterError, match="must be integers"):
            bounded_bfs_ball(source, origin, max_depth=depth, excluded=excluded)

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_empty_exclusion_list_is_none(self, kind):
        source, origin, depth, _ = self._case(kind)
        _assert_identical(
            bounded_bfs_ball(source, origin, max_depth=depth, excluded=[]),
            bounded_bfs_ball(source, origin, max_depth=depth),
        )
