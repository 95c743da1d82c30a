"""Unit tests for repro.embedding.uniform (Section 4 and the Appendix)."""

import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.embedding.uniform import (
    UniformMeshSimulation,
    atallah_slowdown,
    factorise_paper_mesh,
    optimal_simulation_dimension,
    uniform_on_paper_mesh_slowdown,
)
from repro.topology.mesh import Mesh, paper_mesh


class TestFactorisePaperMesh:
    def test_paper_style_examples(self):
        assert factorise_paper_mesh(6, 2) == (48, 15)
        assert factorise_paper_mesh(7, 3) == (28, 18, 10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_product_is_factorial(self, n):
        for d in range(1, n):
            assert math.prod(factorise_paper_mesh(n, d)) == math.factorial(n)

    def test_d_equals_one_collapses_to_a_line(self):
        assert factorise_paper_mesh(5, 1) == (math.factorial(5),)

    def test_d_equals_n_minus_1_recovers_the_paper_mesh(self):
        assert factorise_paper_mesh(5, 4) == (5, 4, 3, 2)

    def test_spread_bound(self):
        # l_1 / l_d < n (1 + n mod d) <= n d  (Appendix).
        for n in range(4, 11):
            for d in range(2, n):
                sides = factorise_paper_mesh(n, d)
                assert max(sides) / min(sides) <= n * d

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            factorise_paper_mesh(5, 0)
        with pytest.raises(InvalidParameterError):
            factorise_paper_mesh(5, 5)
        with pytest.raises(InvalidParameterError):
            factorise_paper_mesh(1, 1)


class TestSlowdownFormulas:
    def test_uniform_sides_give_unity_base_slowdown(self):
        # A mesh that already is uniform simulates itself with slowdown 1 (Theorem 7).
        assert atallah_slowdown((8, 8, 8), account_dimension=False) == pytest.approx(1.0)

    def test_dimension_factor(self):
        base = atallah_slowdown((8, 8, 8), account_dimension=False)
        with_dim = atallah_slowdown((8, 8, 8), account_dimension=True)
        assert with_dim == pytest.approx(base * 8)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            atallah_slowdown(())
        with pytest.raises(InvalidParameterError):
            atallah_slowdown((4, 0))

    def test_paper_mesh_slowdowns_monotone_structure(self):
        bounds = uniform_on_paper_mesh_slowdown(6)
        assert bounds["theorem8"] == pytest.approx(bounds["theorem7"] * 2 ** 5)
        assert bounds["on_star"] == pytest.approx(3 * bounds["theorem8"])
        assert bounds["paper_bound"] > 1

    def test_theorem7_slowdown_value(self):
        # For D_n: max l_i = n, N^{1/(n-1)} = (n!)^{1/(n-1)}.
        n = 5
        expected = n / (math.factorial(n) ** (1 / (n - 1)))
        assert uniform_on_paper_mesh_slowdown(n)["theorem7"] == pytest.approx(expected)


class TestOptimalDimension:
    def test_small_degrees(self):
        for n in range(3, 12):
            d = optimal_simulation_dimension(n)
            assert 1 <= d <= n - 1

    def test_optimum_is_a_discrete_argmin(self):
        n = 9
        total = math.factorial(n)
        best = optimal_simulation_dimension(n)
        cost = lambda d: d * 2**d * total ** (2 / d)  # noqa: E731
        assert all(cost(best) <= cost(d) for d in range(1, n))

    def test_grows_with_n(self):
        assert optimal_simulation_dimension(12) >= optimal_simulation_dimension(4)


class TestUniformMeshSimulation:
    def test_requires_target_or_degree(self):
        with pytest.raises(InvalidParameterError):
            UniformMeshSimulation((3, 3))

    def test_rejects_bad_sides(self):
        with pytest.raises(InvalidParameterError):
            UniformMeshSimulation((), n=4)
        with pytest.raises(InvalidParameterError):
            UniformMeshSimulation((3, 0), n=4)

    def test_map_node_stays_in_target(self):
        sim = UniformMeshSimulation((3, 3, 3), n=4)
        for coords in Mesh((3, 3, 3)).nodes():
            assert paper_mesh(4).is_node(sim.map_node(coords))

    def test_load_balance(self):
        # 27 uniform nodes onto 24 target nodes: loads are 1 or 2.
        sim = UniformMeshSimulation((3, 3, 3), n=4)
        metrics = sim.measure()
        assert metrics.uniform_nodes == 27 and metrics.target_nodes == 24
        assert metrics.min_load >= 1 and metrics.max_load <= 2

    def test_equal_sizes_give_bijection(self):
        sim = UniformMeshSimulation((4, 3, 2), target=Mesh((4, 3, 2)))
        metrics = sim.measure()
        assert metrics.max_load == metrics.min_load == 1
        assert metrics.max_edge_distance >= 1

    def test_edge_stretch_bounded_by_target_diameter(self):
        sim = UniformMeshSimulation((3, 3, 3), n=4)
        metrics = sim.measure()
        assert metrics.max_edge_distance <= paper_mesh(4).diameter()
        assert metrics.average_edge_distance <= metrics.max_edge_distance

    @pytest.mark.parametrize(
        "sides,n",
        [((3, 3, 3), 4), ((4, 4, 4), 4), ((5, 5), 4), ((2,), 2), ((3, 3, 3, 3), 5)],
    )
    def test_vectorised_measure_matches_reference(self, sides, n):
        # PR-3 parity contract: the array sweep equals the per-node enumeration.
        sim = UniformMeshSimulation(sides, n=n)
        assert sim.measure() == sim.measure_reference()
