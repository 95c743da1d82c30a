"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover the library's load-bearing bijections and metric properties on
randomly drawn instances, complementing the exhaustive small-degree checks in
the unit tests:

* Lehmer ranking is a bijection and order-preserving;
* CONVERT-D-S / CONVERT-S-D are mutually inverse bijections for arbitrary
  degrees and coordinates (Theorem 4's vertex map, expansion 1);
* star-graph distance is a metric, bounded by the diameter, invariant under
  relabelling, and agrees with the greedy route length (Lemma 2's ingredients);
* mixed-radix encode/decode round-trips;
* transposition paths always have length 1 or 3 and land on the transposed
  permutation (Lemma 2);
* mesh edges always map to host paths of length 1 or 3 whose endpoints are the
  mapped endpoints (Theorem 4).
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.embedding.mesh_to_star import convert_d_s, convert_s_d
from repro.embedding.paths import transposition_path
from repro.permutations.generators import apply_star_generator
from repro.permutations.permutation import Permutation, swap_symbols
from repro.permutations.ranking import permutation_rank, permutation_unrank
from repro.topology.routing import star_distance, star_route
from repro.utils.mixed_radix import MixedRadix


# --------------------------------------------------------------------- strategies
def permutations_of_degree(min_degree=2, max_degree=8):
    """Random permutations as tuples, degree drawn from [min_degree, max_degree]."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.permutations(list(range(n))).map(tuple)
    )


def mesh_coordinates(min_degree=2, max_degree=8):
    """Random (n, coords) pairs with coords a valid D_n node."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(*[st.integers(0, n - 1 - i) for i in range(n - 1)]),
        )
    )


# ----------------------------------------------------------------------- ranking
class TestRankingProperties:
    @given(perm=permutations_of_degree())
    def test_rank_unrank_round_trip(self, perm):
        assert permutation_unrank(permutation_rank(perm), len(perm)) == perm

    @given(n=st.integers(2, 7), rank=st.integers(0, 100))
    def test_unrank_rank_round_trip(self, n, rank):
        assume(rank < math.factorial(n))
        assert permutation_rank(permutation_unrank(rank, n)) == rank

    @given(perm=permutations_of_degree())
    def test_rank_in_range(self, perm):
        assert 0 <= permutation_rank(perm) < math.factorial(len(perm))


# ------------------------------------------------------------------- permutations
class TestPermutationAlgebraProperties:
    @given(perm=permutations_of_degree())
    def test_cycles_partition_non_fixed_points(self, perm):
        p = Permutation(perm)
        in_cycles = sorted(x for cycle in p.cycles() for x in cycle)
        non_fixed = sorted(i for i in range(len(perm)) if perm[i] != i)
        assert in_cycles == non_fixed

    @given(perm=permutations_of_degree(), data=st.data())
    def test_swap_symbols_is_an_involution(self, perm, data):
        n = len(perm)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assume(a != b)
        assert swap_symbols(swap_symbols(perm, a, b), a, b) == perm


# --------------------------------------------------------------------- mixed radix
class TestMixedRadixProperties:
    @given(
        radices=st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple),
        data=st.data(),
    )
    def test_encode_decode_round_trip(self, radices, data):
        mr = MixedRadix(radices)
        value = data.draw(st.integers(0, mr.size - 1))
        assert mr.encode(mr.decode(value)) == value

    @given(radices=st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple))
    def test_decode_is_monotone_in_lexicographic_order(self, radices):
        mr = MixedRadix(radices)
        decoded = [mr.decode(v) for v in range(min(mr.size, 50))]
        assert decoded == sorted(decoded)


# ------------------------------------------------------------------ star distances
class TestStarDistanceProperties:
    @given(perm=permutations_of_degree())
    def test_distance_to_self_is_zero(self, perm):
        assert star_distance(perm, perm) == 0

    @given(perm=permutations_of_degree(min_degree=3))
    def test_neighbors_at_distance_one(self, perm):
        for j in range(1, len(perm)):
            assert star_distance(perm, apply_star_generator(perm, j)) == 1

    @given(data=st.data(), n=st.integers(3, 7))
    def test_symmetry_and_diameter_bound(self, data, n):
        u = tuple(data.draw(st.permutations(list(range(n)))))
        v = tuple(data.draw(st.permutations(list(range(n)))))
        d_uv = star_distance(u, v)
        assert d_uv == star_distance(v, u)
        assert 0 <= d_uv <= (3 * (n - 1)) // 2

    @given(data=st.data(), n=st.integers(3, 6))
    def test_triangle_inequality(self, data, n):
        u = tuple(data.draw(st.permutations(list(range(n)))))
        v = tuple(data.draw(st.permutations(list(range(n)))))
        w = tuple(data.draw(st.permutations(list(range(n)))))
        assert star_distance(u, w) <= star_distance(u, v) + star_distance(v, w)

    @given(data=st.data(), n=st.integers(3, 7))
    def test_greedy_route_realises_the_closed_form(self, data, n):
        u = tuple(data.draw(st.permutations(list(range(n)))))
        v = tuple(data.draw(st.permutations(list(range(n)))))
        path = star_route(u, v)
        assert len(path) - 1 == star_distance(u, v)
        for a, b in zip(path, path[1:]):
            differing = [i for i in range(n) if a[i] != b[i]]
            assert len(differing) == 2 and 0 in differing


# ------------------------------------------------------------------------ Lemma 2
class TestLemma2Properties:
    @given(perm=permutations_of_degree(min_degree=3), data=st.data())
    def test_transposition_distance_is_one_or_three(self, perm, data):
        n = len(perm)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assume(a != b)
        target = swap_symbols(perm, a, b)
        distance = star_distance(perm, target)
        assert distance in (1, 3)
        assert (distance == 1) == (perm[0] in (a, b))

    @given(perm=permutations_of_degree(min_degree=3), data=st.data())
    def test_canonical_path_is_shortest_and_correct(self, perm, data):
        n = len(perm)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assume(a != b)
        path = transposition_path(perm, a, b)
        assert path[0] == perm
        assert path[-1] == swap_symbols(perm, a, b)
        assert len(path) - 1 == star_distance(perm, path[-1])


# ---------------------------------------------------------------------- Theorem 4
class TestConversionProperties:
    @given(pair=mesh_coordinates())
    def test_convert_round_trip(self, pair):
        n, coords = pair
        perm = convert_d_s(coords, n)
        assert sorted(perm) == list(range(n))
        assert convert_s_d(perm, n) == coords

    @given(pair=mesh_coordinates(max_degree=7), data=st.data())
    def test_mesh_edges_map_to_transpositions_at_distance_1_or_3(self, pair, data):
        n, coords = pair
        dimension = data.draw(st.integers(1, n - 1))
        index = n - 1 - dimension
        delta = data.draw(st.sampled_from([-1, +1]))
        new_value = coords[index] + delta
        assume(0 <= new_value <= dimension)
        neighbor = list(coords)
        neighbor[index] = new_value
        image_u = convert_d_s(coords, n)
        image_v = convert_d_s(tuple(neighbor), n)
        distance = star_distance(image_u, image_v)
        assert distance in (1, 3)
        # The two images differ by a symbol transposition (exactly two positions swapped).
        differing = [i for i in range(n) if image_u[i] != image_v[i]]
        assert len(differing) == 2
        assert image_u[differing[0]] == image_v[differing[1]]
        assert image_u[differing[1]] == image_v[differing[0]]

    @settings(max_examples=25)
    @given(n=st.integers(2, 6), data=st.data())
    def test_distinct_coordinates_map_to_distinct_permutations(self, n, data):
        coords_strategy = st.tuples(*[st.integers(0, n - 1 - i) for i in range(n - 1)])
        first = data.draw(coords_strategy)
        second = data.draw(coords_strategy)
        assume(first != second)
        assert convert_d_s(first, n) != convert_d_s(second, n)
