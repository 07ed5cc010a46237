"""Feasibility of bounded nonnegative integer linear systems.

Depth-first branch and bound with interval propagation: each constraint
tightens the variable bounds until a fixpoint, search branches on the
variable with the smallest remaining domain, values ascending.  All
arithmetic is exact integer arithmetic; inputs are capped at 32-bit
magnitude on construction so the engine either answers correctly or
refuses the problem, never overflows silently.  There is no randomization
anywhere: identical problems yield identical assignments.

Rows are sparse ``(variable, coefficient)`` terms (:class:`LinearConstraint`),
so compilers hand over the index lists they build and the engine reads
them as they are; :func:`equal` and :func:`at_most` take a dense vector.
"""

from __future__ import annotations

from dataclasses import dataclass

MAGNITUDE_LIMIT = 2**31

RELATIONS = ("=", "<=")

Terms = tuple[tuple[int, int], ...]
_Row = tuple[Terms, int]  # normalized (terms, rhs): sum(c * x[j]) <= rhs


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(c * x[j] for j, c in terms) <relation> rhs``, one ``(j, c)`` term
    per nonzero coefficient, ``j`` strictly ascending; :class:`IlpProblem`
    checks ranges, order and magnitudes."""

    terms: Terms
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
            if con.relation not in RELATIONS:
                raise ValueError(f"unknown relation {con.relation!r}")
            if abs(con.rhs) >= MAGNITUDE_LIMIT:
                raise ValueError("right-hand side exceeds the 32-bit magnitude guard")
            prev = -1
            for term in con.terms:
                if not isinstance(term, tuple) or len(term) != 2:
                    raise ValueError(
                        f"term {term!r} is not a (variable, coefficient) pair"
                    )
                j, c = term
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"term variable x{j} out of range")
                if j <= prev:
                    raise ValueError(f"term variable x{j} repeats or descends")
                if c == 0:
                    raise ValueError(f"zero coefficient on x{j}")
                if abs(c) >= MAGNITUDE_LIMIT:
                    raise ValueError("coefficient exceeds the 32-bit magnitude guard")
                prev = j


@dataclass(frozen=True)
class IlpSolution:
    values: tuple[int, ...]


def _dense_terms(coeffs: tuple[int, ...]) -> Terms:
    return tuple((j, c) for j, c in enumerate(coeffs) if c != 0)


def equal(coeffs: tuple[int, ...], rhs: int) -> LinearConstraint:
    return LinearConstraint(_dense_terms(coeffs), "=", rhs)


def at_most(coeffs: tuple[int, ...], rhs: int) -> LinearConstraint:
    return LinearConstraint(_dense_terms(coeffs), "<=", rhs)


def _normalize(problem: IlpProblem) -> list[_Row]:
    """Rewrite every constraint as one or two <=-rows."""
    rows: list[_Row] = []
    for con in problem.constraints:
        rows.append((con.terms, con.rhs))
        if con.relation == "=":
            rows.append((tuple((j, -c) for j, c in con.terms), -con.rhs))
    return rows


def _propagate(rows: list[_Row], lower: list[int], upper: list[int]) -> bool:
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
    if len(values) != problem.num_vars or not all(
        lo <= x <= up for x, lo, up in zip(values, problem.lower, problem.upper)
    ):
        return False
    for con in problem.constraints:
        total = sum(c * values[j] for j, c in con.terms)
        if total > con.rhs or (con.relation == "=" and total != con.rhs):
            return False
    return True


def solve_feasibility(problem: IlpProblem) -> IlpSolution | None:
    """A satisfying assignment iff one exists, else None."""
    values = _search(_normalize(problem), list(problem.lower), list(problem.upper))
    if values is None:
        return None
    solution = IlpSolution(tuple(values))
    assert satisfies(problem, solution.values), "engine returned a bad assignment"
    return solution


def _search(rows: list[_Row], lower: list[int], upper: list[int]) -> list[int] | None:
    """Depth-first search on an explicit stack, so deep trees cannot overflow.

    A frame holds a propagated node's bounds, its branching variable and
    the next value to try; children are copied one at a time, values
    ascending, and the first leaf that propagates is returned: with every
    variable fixed, a propagation pass has checked each row's exact sum.
    """
    stack: list[list] = []
    while True:
        if _propagate(rows, lower, upper):
            # branch on the first variable of smallest open domain
            widths = [up - lo for lo, up in zip(lower, upper)]
            smallest = min((w for w in widths if w > 0), default=0)
            if not smallest:
                return lower
            pick = widths.index(smallest)
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
        terms = " ".join(f"{c:+d} x{j}" for j, c in con.terms)
        lines.append(f"{terms or '0'} {con.relation} {con.rhs}")
    return "\n".join(lines) + "\n"
