"""Tests for the phase-1 feasibility solver."""

import numpy as np
import pytest

from mzpair import simplex
from mzpair.simplex import Phase1Result, solve_phase1

TOL = 1e-9


def assert_farkas_certificate(A, b, result):
    # y separates: positive value on b, nonpositive on every column of A.
    assert not result.feasible
    y = np.asarray(result.certificate)
    assert y.shape == (A.shape[0],)
    assert float(y @ b) > TOL
    assert float(np.max(A.T @ y)) <= TOL


def assert_feasible_solution(A, b, result):
    assert result.feasible
    assert result.objective <= TOL
    assert result.certificate is None
    x = result.x
    assert x.shape == (A.shape[1],)
    assert float(np.min(x)) >= -1e-12
    scale = max(1.0, float(np.max(np.abs(b))))
    assert float(np.max(np.abs(A @ x - b))) <= TOL * scale


class TestKnownSystems:
    def test_small_feasible(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([2.0, 1.0])
        result = solve_phase1(A, b)
        assert_feasible_solution(A, b, result)

    def test_zero_rhs_is_trivially_feasible(self):
        A = np.eye(3)
        b = np.zeros(3)
        result = solve_phase1(A, b)
        assert_feasible_solution(A, b, result)
        assert float(np.max(np.abs(result.x))) <= 1e-12

    def test_redundant_consistent_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        result = solve_phase1(A, b)
        assert_feasible_solution(A, b, result)

    def test_normalization_row(self):
        A = np.ones((1, 4))
        b = np.array([1.0])
        result = solve_phase1(A, b)
        assert_feasible_solution(A, b, result)
        assert abs(float(result.x.sum()) - 1.0) <= TOL

    def test_contradictory_rows_are_infeasible(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        result = solve_phase1(A, b)
        assert result.objective > TOL
        assert_farkas_certificate(A, b, result)

    def test_zero_row_with_positive_rhs(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0])
        result = solve_phase1(A, b)
        assert_farkas_certificate(A, b, result)

    def test_iterations_are_reported(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([3.0, 4.0])
        result = solve_phase1(A, b)
        assert isinstance(result, Phase1Result)
        assert result.iterations >= 1


class TestRandomSystems:
    def test_planted_solutions_are_recovered(self):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            n = m + int(rng.integers(0, 7))
            A = np.abs(rng.normal(size=(m, n)))
            planted = np.abs(rng.normal(size=n))
            planted[rng.random(n) < 0.3] = 0.0  # sparse support
            b = A @ planted
            result = solve_phase1(A, b)
            assert_feasible_solution(A, b, result)

    def test_unreachable_rows_are_certified(self):
        rng = np.random.default_rng(3141)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            A = np.abs(rng.normal(size=(m, n)))
            b = A @ np.abs(rng.normal(size=n))
            # Append a row no nonnegative combination can reach.
            A = np.vstack([A, np.zeros(n)])
            b = np.append(b, 1.0)
            result = solve_phase1(A, b)
            assert_farkas_certificate(A, b, result)


class TestValidation:
    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_phase1(np.eye(2), np.array([1.0, -1.0]))

    def test_rejects_vector_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            solve_phase1(np.ones(3), np.ones(3))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError, match="shape"):
            solve_phase1(np.eye(3), np.ones(2))


class TestPivotGuard:
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([2.0, 1.0])

    def test_raises_past_the_pivot_limit(self, monkeypatch):
        pivots = solve_phase1(self.A, self.b).iterations
        assert pivots >= 2
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", pivots)
        assert_feasible_solution(self.A, self.b, solve_phase1(self.A, self.b))
        for limit in (pivots - 1, 0):
            monkeypatch.setattr(simplex, "MAX_ITERATIONS", limit)
            with pytest.raises(RuntimeError, match="simplex failed to terminate"):
                solve_phase1(self.A, self.b)
