import random

import pytest

from ndsolve.ilp import (
    IlpProblem,
    LinearConstraint,
    at_most,
    equal,
    format_problem,
    propagate_bounds,
    satisfies,
    solve_feasibility,
)
from helpers import grid_count, grid_feasible, random_ilp


def test_unique_solution():
    problem = IlpProblem(2, (0, 0), (1, 1), (equal((1, 1), 2),))
    solution = solve_feasibility(problem)
    assert solution is not None
    assert solution.values == (1, 1)


def test_parity_infeasible():
    problem = IlpProblem(1, (0,), (5,), (equal((2,), 1),))
    assert solve_feasibility(problem) is None


def test_empty_problem():
    assert solve_feasibility(IlpProblem(0, (), (), ())).values == ()
    assert solve_feasibility(IlpProblem(0, (), (), (equal((), 1),))) is None


def test_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        IlpProblem(1, (-1,), (2,), ())
    with pytest.raises(ValueError, match="empty bound"):
        IlpProblem(1, (3,), (2,), ())
    with pytest.raises(ValueError, match="magnitude"):
        IlpProblem(1, (0,), (2,), (equal((2**31,), 0),))
    with pytest.raises(ValueError, match="out of range"):
        IlpProblem(2, (0, 0), (1, 1), (LinearConstraint(((2, 1),), "=", 0),))
    with pytest.raises(ValueError, match="relation"):
        IlpProblem(1, (0,), (1,), (LinearConstraint((1,), ">=", 0),))


@pytest.mark.parametrize(
    "terms, match",
    [
        (((0, 1), (2, 1)), "out of range"),
        (((-1, 1),), "out of range"),
        (((0, 1), (0, 2)), "repeats or descends"),
        (((1, 1), (0, 1)), "repeats or descends"),
        (((0, 1), (1, 0)), "zero coefficient"),
        (((1, -(2**31)),), "magnitude"),
        ((1,), r"term 1 is not a \(variable, coefficient\) pair"),
        (((0,),), r"term \(0,\) is not a \(variable, coefficient\) pair"),
        (((0, 1, 2),), r"term \(0, 1, 2\) is not a \(variable, coefficient\) pair"),
    ],
)
def test_malformed_terms(terms, match):
    with pytest.raises(ValueError, match=match):
        IlpProblem(2, (0, 0), (1, 1), (LinearConstraint(terms, "<=", 1),))


def test_dense_constructors_keep_the_nonzero_terms():
    assert equal((0, 3, 0, -1), 2) == LinearConstraint(((1, 3), (3, -1)), "=", 2)
    assert at_most((0, 0), -1) == LinearConstraint((), "<=", -1)


def test_propagation_tightens():
    problem = IlpProblem(2, (0, 0), (5, 5), (at_most((1, 1), 1),))
    bounds = propagate_bounds(problem)
    assert bounds == ((0, 0), (1, 1))


def test_propagation_detects_contradiction():
    problem = IlpProblem(1, (0,), (2,), (equal((1,), 3),))
    assert propagate_bounds(problem) is None


def test_propagation_handles_negative_coefficients():
    # -2x <= -4  =>  x >= 2
    problem = IlpProblem(1, (0,), (5,), (at_most((-2,), -4),))
    bounds = propagate_bounds(problem)
    assert bounds == ((2,), (5,))


def test_feasibility_matches_grid_enumeration():
    rng = random.Random(31415)
    for _ in range(80):
        problem = random_ilp(rng, max_vars=5, max_bound=5)
        got = solve_feasibility(problem)
        want = grid_feasible(problem)
        assert (got is None) == (want is None)
        if got is not None:
            assert satisfies(problem, got.values)


def test_propagation_preserves_the_solution_set():
    rng = random.Random(2718)
    for _ in range(60):
        problem = random_ilp(rng, max_vars=4, max_bound=4)
        before = grid_count(problem)
        bounds = propagate_bounds(problem)
        if bounds is None:
            assert before == 0
            continue
        tightened = IlpProblem(
            problem.num_vars, bounds[0], bounds[1], problem.constraints
        )
        assert grid_count(tightened) == before


def test_determinism():
    rng = random.Random(99)
    for _ in range(20):
        problem = random_ilp(rng, max_vars=4, max_bound=4)
        first = solve_feasibility(problem)
        second = solve_feasibility(problem)
        assert first == second


def test_deep_search_needs_no_recursion():
    # one fixed variable per search level: 1200 levels deep
    n = 1200
    problem = IlpProblem(n, (0,) * n, (1,) * n, (equal((1,) * n, 1),))
    solution = solve_feasibility(problem)
    assert solution is not None
    assert satisfies(problem, solution.values)


def test_format_problem_lists_bounds_and_constraints():
    problem = IlpProblem(
        2, (0, 0), (3, 1), (equal((1, -2), 1), at_most((0, 1), 1))
    )
    text = format_problem(problem)
    assert "0 <= x0 <= 3" in text
    assert "+1 x0 -2 x1 = 1" in text
    assert "+1 x1 <= 1" in text
