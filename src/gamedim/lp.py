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

Phase one starts from slack columns where it can (Chvátal, *Linear
Programming*, 1983; Maros, *Computational Techniques of the Simplex Method*,
2003, on crash bases).  A row whose rhs is at most 0 already holds at x = 0;
it is negated, so its surplus column is +e_i, and its surplus starts basic
at the value -rhs >= 0.  Only a row with rhs > 0 gets an artificial, and
only those rows enter the phase-one objective.  Every win row w.S - q >= 0
of a separation LP has rhs 0, so such an LP starts with nearly all of its
rows basic in their surplus.

Every solve builds its tableau at once from the slack start, with d = 1 and
an empty structural basis, runs one phase one on it, and reads the
certificate off the final rows.  No tableau outlives its solve, so
``_pivot`` may edit rows in place: they are the solve's own, and concurrent
solves share none of them.

The tableau stores the structural and surplus columns only.  Each artificial
is a basis label with no column, so an artificial that leaves the basis never
re-enters (Chvátal 1983).  Its column would be a fixed multiple of its row's
surplus column, so dropping it changes no other column, and the pivots are
those of the full tableau up to the first point where Bland's rule would
bring an artificial back.  The start basis of surplus and artificial labels
has every basic value >= 0, so it is a feasible basis of the phase-one
problem over the columns still present, and Bland's rule terminates between
two departures (Bland, Math. Oper. Res. 1977); there are at most m
departures.  Phase one stops as soon as the artificial sum is zero: every
further pivot would be degenerate, so the feasible assignment is the one a
longer run would give.

Both kinds of Farkas multiplier are reduced costs of the final tableau (LP
duality; Schrijver, *Theory of Linear and Integer Programming*, 1986): the
multiplier of a row is the reduced cost of its surplus column, and that of a
sign row x_j >= 0 is the reduced cost of x_j's column.  Negating a row
negates both its surplus column and its dual value, so that reading holds
whether a row starts with its artificial or its surplus.  An infeasible
phase one stops only when no stored column has a negative reduced cost, and
a certificate needs nothing more than those signs, so the drop rule keeps
every infeasible answer certified.

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
    """Phase one on ``lp``'s rows from the slack start, with d = 1.

    The result is read off the final rows: the basic values over d, or the
    reduced costs over d as Farkas multipliers.
    """
    # Column layout: one column per variable, then one surplus column per
    # row.  Row i's artificial is basis label ncols + i with no stored
    # column, so once it leaves the basis it never re-enters.
    n, m = lp.num_vars, len(lp.constraints)
    ncols = n + m

    # Each row starts with its artificial basic and is subtracted from the
    # reduced-cost row if its rhs is > 0; otherwise it is negated, so its
    # surplus column is +1, and starts with its surplus basic at the value
    # -rhs >= 0.
    tableau: list[list[int]] = []
    basis: list[int] = []
    z = [0] * (ncols + 1)
    for i, con in enumerate(lp.constraints):
        row = list(con.coeffs) + [0] * m + [con.rhs]
        row[n + i] = -1
        if row[ncols] > 0:
            basis.append(ncols + i)
            z = [a - b for a, b in zip(z, row)]
        else:
            row = [-a for a in row]
            basis.append(n + i)
        tableau.append(row)
    tableau.append(z)

    d = 1
    while tableau[m][ncols]:  # stop once the artificial sum is zero
        z = tableau[m]
        enter = -1
        for j in range(ncols):  # Bland: smallest eligible column index
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Ratio test rhs/t by cross-multiplication (every t > 0), ties to
        # the smallest basic variable.
        leave = -1
        for i in range(m):
            t = tableau[i][enter]
            if t > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tableau[i][ncols] * tableau[leave][enter]
                rhs = tableau[leave][ncols] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:  # objective is bounded below by zero
            raise CertificateError("phase-one search became unbounded")
        d = _pivot(tableau, d, leave, enter)
        basis[leave] = enter

    z = tableau[m]
    if z[ncols] == 0:
        values = [0] * (ncols + m)  # basic artificials are 0
        for row, bv in zip(tableau, basis):
            values[bv] = row[ncols]
        assignment = tuple(Fraction(v, d) for v in values[:n])
        return FeasibilityResult(assignment=assignment)

    # The Farkas multipliers are reduced costs: of each row's surplus column,
    # and of each variable's column for its sign row.
    witness = FarkasWitness(
        tuple(Fraction(y, d) for y in z[n:ncols]),
        tuple((j, Fraction(y, d)) for j, y in enumerate(z[:n]) if y),
    )
    return FeasibilityResult(farkas=witness)


def _pivot(tableau, d, leave, enter):
    """Fraction-free pivot on ``tableau[leave][enter]``; returns the new divisor.

    Every row but the pivot row becomes (p * row - f * pivot_row) / d with
    f = row[enter], which divides exactly; the pivot row is kept as it is.
    When p = d, that is row - f * pivot_row / d: a row with f = 0 is kept,
    and any other changes only where the pivot row is nonzero, where
    f * b / d is exact because p * a - f * b is a multiple of d.  Those rows
    are edited in place; no other solve holds them.
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
