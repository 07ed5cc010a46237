"""Feasibility of bounded nonnegative integer linear systems.

Depth-first branch and bound with interval propagation: each constraint
tightens the variable bounds until a fixpoint, search branches on the
variable with the smallest remaining domain, values ascending.  All
arithmetic is exact integer arithmetic; inputs are capped at 32-bit
magnitude on construction so the engine either answers correctly or
refuses the problem, never overflows silently.  There is no randomization
anywhere: identical problems yield identical assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

MAGNITUDE_LIMIT = 2**31

RELATIONS = ("=", "<=")

# a normalized constraint is (terms, rhs) meaning sum(c * x[j]) <= rhs,
# with terms a tuple of (j, c) for the nonzero coefficients
_Norm = tuple[tuple[tuple[int, int], ...], int]


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[int, ...]
    relation: str
    rhs: int


@dataclass(frozen=True)
class IlpProblem:
    """Integer variables with box bounds and linear (in)equality constraints."""

    num_vars: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise ValueError("one lower and upper bound per variable required")
        for lo, up in zip(self.lower, self.upper):
            if lo < 0:
                raise ValueError("variables are nonnegative")
            if lo > up:
                raise ValueError(f"empty bound interval [{lo}, {up}]")
            if up >= MAGNITUDE_LIMIT:
                raise ValueError("bound exceeds the 32-bit magnitude guard")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError("coefficient vector length mismatch")
            if con.relation not in RELATIONS:
                raise ValueError(f"unknown relation {con.relation!r}")
            if abs(con.rhs) >= MAGNITUDE_LIMIT or any(
                abs(c) >= MAGNITUDE_LIMIT for c in con.coeffs
            ):
                raise ValueError("coefficient exceeds the 32-bit magnitude guard")


@dataclass(frozen=True)
class IlpSolution:
    values: tuple[int, ...]


def equal(coeffs: tuple[int, ...], rhs: int) -> LinearConstraint:
    return LinearConstraint(tuple(coeffs), "=", rhs)


def at_most(coeffs: tuple[int, ...], rhs: int) -> LinearConstraint:
    return LinearConstraint(tuple(coeffs), "<=", rhs)


def _normalize(problem: IlpProblem) -> list[_Norm]:
    """Rewrite every constraint as one or two <=-rows over nonzero terms."""
    rows: list[_Norm] = []
    for con in problem.constraints:
        terms = tuple((j, c) for j, c in enumerate(con.coeffs) if c != 0)
        rows.append((terms, con.rhs))
        if con.relation == "=":
            rows.append((tuple((j, -c) for j, c in terms), -con.rhs))
    return rows


def _propagate(rows: list[_Norm], lower: list[int], upper: list[int]) -> bool:
    """Tighten bounds to a fixpoint; False signals a contradiction.

    Interval reasoning only ever discards values no integer solution can
    take, so the solution set is preserved exactly.
    """
    changed = True
    while changed:
        changed = False
        for terms, rhs in rows:
            total_min = 0
            for j, c in terms:
                total_min += c * lower[j] if c > 0 else c * upper[j]
            if total_min > rhs:
                return False
            for j, c in terms:
                if c > 0:
                    rest = total_min - c * lower[j]
                    new_up = (rhs - rest) // c
                    if new_up < upper[j]:
                        if new_up < lower[j]:
                            return False
                        upper[j] = new_up
                        changed = True
                else:
                    rest = total_min - c * upper[j]
                    # c*x <= rhs - rest with c < 0, so x >= ceil((rhs-rest)/c)
                    new_low = -((rhs - rest) // -c)
                    if new_low > lower[j]:
                        if new_low > upper[j]:
                            return False
                        lower[j] = new_low
                        changed = True
    return True


def propagate_bounds(
    problem: IlpProblem,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Fixpoint-tightened bounds, or None when propagation proves infeasibility."""
    lower, upper = list(problem.lower), list(problem.upper)
    if not _propagate(_normalize(problem), lower, upper):
        return None
    return tuple(lower), tuple(upper)


def satisfies(problem: IlpProblem, values: tuple[int, ...]) -> bool:
    """Exact check of all bounds and constraints."""
    if len(values) != problem.num_vars:
        return False
    for x, lo, up in zip(values, problem.lower, problem.upper):
        if not lo <= x <= up:
            return False
    for con in problem.constraints:
        total = sum(c * x for c, x in zip(con.coeffs, values))
        if con.relation == "=" and total != con.rhs:
            return False
        if con.relation == "<=" and total > con.rhs:
            return False
    return True


def solve_feasibility(problem: IlpProblem) -> IlpSolution | None:
    """A satisfying assignment iff one exists, else None."""
    rows = _normalize(problem)
    values = _search(problem, rows, list(problem.lower), list(problem.upper))
    if values is None:
        return None
    solution = IlpSolution(tuple(values))
    assert satisfies(problem, solution.values), "engine returned a bad assignment"
    return solution


def _search(
    problem: IlpProblem, rows: list[_Norm], lower: list[int], upper: list[int]
) -> list[int] | None:
    """Depth-first search on an explicit stack, so deep trees cannot overflow.

    A frame holds a propagated node's bounds, its branching variable and
    the next value to try; children are copied one at a time, values
    ascending, and the first leaf that propagates is returned: with every
    variable fixed, a propagation pass has checked each row's exact sum.
    """
    stack: list[list] = []
    while True:
        if _propagate(rows, lower, upper):
            pick = -1
            smallest = None
            for j in range(problem.num_vars):
                width = upper[j] - lower[j]
                if width > 0 and (smallest is None or width < smallest):
                    smallest = width
                    pick = j
            if pick < 0:
                return lower
            stack.append([lower, upper, pick, lower[pick]])
        while stack:
            node_lower, node_upper, pick, value = stack[-1]
            if value <= node_upper[pick]:
                break
            stack.pop()
        else:
            return None
        stack[-1][3] = value + 1
        lower, upper = list(node_lower), list(node_upper)
        lower[pick] = upper[pick] = value


def format_problem(problem: IlpProblem) -> str:
    """Plain text form, one bound or constraint per line, for inspection."""
    lines = [f"vars {problem.num_vars}"]
    for j in range(problem.num_vars):
        lines.append(f"{problem.lower[j]} <= x{j} <= {problem.upper[j]}")
    for con in problem.constraints:
        terms = " ".join(
            f"{c:+d} x{j}" for j, c in enumerate(con.coeffs) if c != 0
        )
        lines.append(f"{terms or '0'} {con.relation} {con.rhs}")
    return "\n".join(lines) + "\n"
