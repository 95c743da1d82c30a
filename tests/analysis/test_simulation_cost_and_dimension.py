"""Unit tests for repro.analysis.simulation_cost and repro.analysis.optimal_dimension."""

import math

import pytest

from repro.analysis.optimal_dimension import (
    appendix_cost,
    optimal_dimension_table,
)
from repro.analysis.simulation_cost import sorting_cost_estimates, uniform_simulation_table
from repro.embedding.uniform import optimal_simulation_dimension
from repro.exceptions import InvalidParameterError


class TestUniformSimulationTable:
    def test_rows_match_requested_degrees(self):
        rows = uniform_simulation_table([3, 5, 7])
        assert [row.n for row in rows] == [3, 5, 7]
        assert rows[1].num_processors == 120

    def test_relationships_between_columns(self):
        for row in uniform_simulation_table([4, 6, 8]):
            assert row.theorem8_slowdown == pytest.approx(
                row.theorem7_slowdown * 2 ** (row.n - 1)
            )
            assert row.on_star_slowdown == pytest.approx(3 * row.theorem8_slowdown)

    def test_slowdown_grows_with_n(self):
        rows = uniform_simulation_table([4, 6, 8, 10])
        slowdowns = [row.theorem8_slowdown for row in rows]
        assert slowdowns == sorted(slowdowns)

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidParameterError):
            uniform_simulation_table([1])


class TestSortingEstimates:
    def test_keys_present(self):
        estimates = sorting_cost_estimates(6)
        assert set(estimates) == {
            "uniform_full_dimension",
            "appendix_optimal",
            "appendix_optimal_dimension",
            "shearsort_2d",
        }

    def test_optimal_dimension_beats_full_dimension_for_large_n(self):
        for n in (7, 8, 9, 10):
            estimates = sorting_cost_estimates(n)
            assert estimates["appendix_optimal"] <= estimates["uniform_full_dimension"]

    def test_optimal_dimension_matches_embedding_module(self):
        for n in (5, 8):
            assert sorting_cost_estimates(n)["appendix_optimal_dimension"] == float(
                optimal_simulation_dimension(n)
            )

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameterError):
            sorting_cost_estimates(2)


class TestAppendixAnalysis:
    def test_cost_positive_and_dimension_dependent(self):
        costs = {d: appendix_cost(8, d) for d in range(1, 8)}
        assert all(cost > 0 for cost in costs.values())
        # d = 1 (a single line of 40320 nodes) must be far worse than the best d.
        assert costs[1] > min(costs.values()) * 10

    def test_cost_rejects_bad_dimension(self):
        with pytest.raises(InvalidParameterError):
            appendix_cost(6, 0)
        with pytest.raises(InvalidParameterError):
            appendix_cost(6, 6)

    def test_table_rows_and_argmin(self):
        table = optimal_dimension_table(8)
        assert [row.d for row in table] == list(range(1, 8))
        best = min(table, key=lambda row: row.cost)
        # The argmin agrees with the closed-form helper's cost model up to the
        # different (side-length-aware) constant: both should be far from d = 1.
        assert best.d > 1
        for row in table:
            assert math.prod(row.side_lengths) == math.factorial(8)
            assert row.max_side == max(row.side_lengths)

    def test_analytic_optimum_order_of_magnitude(self):
        # sqrt(log2(10!)) / 2 is about 2.3; the measured argmin for n = 10 should be close.
        table = optimal_dimension_table(10)
        best = min(table, key=lambda row: row.cost)
        analytic = 0.5 * math.sqrt(math.log2(math.factorial(10)))
        assert abs(best.d - analytic) <= 2.5
