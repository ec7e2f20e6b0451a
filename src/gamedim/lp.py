"""Exact rational linear feasibility with machine-checkable certificates.

Systems of the form  {a.x >= b,  a.x <= b,  x_j >= 0 for declared j}  are
decided by a phase-one simplex over exact rationals with Bland's pivoting
rule, which guarantees termination and makes the outcome deterministic for
identical input.  A feasible outcome carries an assignment satisfying every
constraint exactly; an infeasible outcome carries Farkas multipliers that
recombine the constraints into 0 >= c with c > 0.  Both certificate kinds
re-verify by plain substitution in :func:`verify_certificate`, and the solver
self-checks every certificate before returning it.

Rationals are gmpy2.mpq when gmpy2 is importable and fractions.Fraction
otherwise; the pivoting sequence and certificates are identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

try:
    from gmpy2 import mpq as _Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Rat

GE = ">="
LE = "<="

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_ZERO = _Rat(0)
_ONE = _Rat(1)


class CertificateError(RuntimeError):
    """A certificate failed exact re-verification."""


def rational(numerator, denominator=1):
    """Exact rational in the active backend (gmpy2.mpq or Fraction)."""
    if hasattr(numerator, "numerator") and not isinstance(numerator, int):
        return _Rat(numerator.numerator, numerator.denominator) * _Rat(1, denominator)
    return _Rat(numerator, denominator)


@dataclass(frozen=True)
class Constraint:
    """One row  coeffs . x  (>=|<=)  rhs  over rational coefficients."""

    coeffs: tuple
    relation: str
    rhs: object

    def __post_init__(self) -> None:
        if self.relation not in (GE, LE):
            raise ValueError(f"relation must be {GE!r} or {LE!r}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(rational(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", rational(self.rhs))

    def ge_form(self) -> tuple[tuple, object]:
        """Coefficients and rhs with the row oriented as >=."""
        if self.relation == GE:
            return self.coeffs, self.rhs
        return tuple(-c for c in self.coeffs), -self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """A pure feasibility system: rows plus a set of sign-constrained variables."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    nonneg_vars: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "nonneg_vars", frozenset(self.nonneg_vars))
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError(
                    f"row has {len(con.coeffs)} coefficients, expected {self.num_vars}"
                )
        for j in self.nonneg_vars:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"nonnegative variable index {j} out of range")


@dataclass(frozen=True)
class FarkasWitness:
    """Nonnegative multipliers recombining the system into 0 >= positive.

    ``row_multipliers[i]`` applies to constraint i oriented as >= (a <= row is
    negated first); ``nonneg_multipliers`` holds (variable, multiplier) pairs
    for the implicit rows x_j >= 0.  Summing all multiplied rows cancels every
    variable exactly and leaves a positive right-hand side.
    """

    row_multipliers: tuple
    nonneg_multipliers: tuple


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    assignment: tuple | None = None
    farkas: FarkasWitness | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


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
    """Re-check a certificate by exact substitution; raise CertificateError on failure."""
    if result.feasible:
        x = result.assignment
        if x is None or len(x) != lp.num_vars:
            raise CertificateError("feasible result lacks a full assignment")
        for j in lp.nonneg_vars:
            if x[j] < 0:
                raise CertificateError(f"assignment violates x_{j} >= 0")
        for i, con in enumerate(lp.constraints):
            value = sum((c * xj for c, xj in zip(con.coeffs, x)), _ZERO)
            if con.relation == GE and value < con.rhs:
                raise CertificateError(f"assignment violates row {i}")
            if con.relation == LE and value > con.rhs:
                raise CertificateError(f"assignment violates row {i}")
        return
    witness = result.farkas
    if witness is None or len(witness.row_multipliers) != len(lp.constraints):
        raise CertificateError("infeasible result lacks a full Farkas witness")
    combo = [_ZERO] * lp.num_vars
    combo_rhs = _ZERO
    for mult, con in zip(witness.row_multipliers, lp.constraints):
        if mult < 0:
            raise CertificateError("negative row multiplier")
        if mult == 0:
            continue
        coeffs, rhs = con.ge_form()
        for j, c in enumerate(coeffs):
            combo[j] += mult * c
        combo_rhs += mult * rhs
    for j, mult in witness.nonneg_multipliers:
        if j not in lp.nonneg_vars:
            raise CertificateError(f"x_{j} is not sign-constrained")
        if mult < 0:
            raise CertificateError("negative multiplier on a sign row")
        combo[j] += mult
    if any(c != 0 for c in combo):
        raise CertificateError("combination does not cancel all variables")
    if combo_rhs <= 0:
        raise CertificateError("combined right-hand side is not positive")


def solve_feasibility(lp: LinearProgram) -> FeasibilityResult:
    """Exact feasibility status plus a verified certificate of the outcome."""
    result = _phase_one(lp)
    verify_certificate(lp, result)
    log = _certificate_log.get()
    if log is not None:
        log.append((lp, result))
    return result


def _phase_one(lp: LinearProgram) -> FeasibilityResult:
    n = lp.num_vars
    m = len(lp.constraints)

    # Column layout: per variable one column (nonnegative) or a +/- pair
    # (free), then one surplus column per row, then one artificial per row.
    col_of_var: list[tuple[int, int | None]] = []
    col = 0
    for j in range(n):
        if j in lp.nonneg_vars:
            col_of_var.append((col, None))
            col += 1
        else:
            col_of_var.append((col, col + 1))
            col += 2
    surplus0 = col
    art0 = surplus0 + m
    ncols = art0 + m

    # Rows are oriented as >= and then sign-normalised to nonnegative rhs.
    tableau: list[list] = []
    sigma: list[int] = []
    for i, con in enumerate(lp.constraints):
        coeffs, rhs = con.ge_form()
        s = 1 if rhs >= 0 else -1
        row = [_ZERO] * (ncols + 1)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            value = c if s == 1 else -c
            pos, neg = col_of_var[j]
            row[pos] = value
            if neg is not None:
                row[neg] = -value
        row[surplus0 + i] = -_ONE if s == 1 else _ONE
        row[art0 + i] = _ONE
        row[ncols] = rhs if s == 1 else -rhs
        tableau.append(row)
        sigma.append(s)

    # Reduced-cost row for minimising the artificial sum; z[ncols] stays the
    # negated objective value.
    z = [_ZERO] * (ncols + 1)
    for j in range(ncols + 1):
        total = _ZERO
        for row in tableau:
            total += row[j]
        z[j] = -total
    for i in range(m):
        z[art0 + i] = _ZERO

    basis = [art0 + i for i in range(m)]

    while True:
        enter = -1
        for j in range(ncols):  # Bland: smallest eligible column index
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        best_var = -1
        for i in range(m):
            t = tableau[i][enter]
            if t > 0:
                ratio = tableau[i][ncols] / t
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < best_var)
                ):
                    best_ratio = ratio
                    best_var = basis[i]
                    leave = i
        if leave < 0:  # objective is bounded below by zero
            raise CertificateError("phase-one search became unbounded")
        _pivot(tableau, z, basis, leave, enter, ncols)

    objective = -z[ncols]
    if objective == 0:
        values = [_ZERO] * ncols
        for i, bv in enumerate(basis):
            values[bv] = tableau[i][ncols]
        assignment = []
        for pos, neg in col_of_var:
            assignment.append(values[pos] - values[neg] if neg is not None else values[pos])
        return FeasibilityResult(FEASIBLE, assignment=tuple(assignment))

    # Simplex multipliers off the artificial columns: y_i = 1 - zbar(art_i);
    # undoing the sign normalisation gives the >=-form row multipliers.
    lam = []
    for i in range(m):
        y = _ONE - z[art0 + i]
        lam.append(y if sigma[i] == 1 else -y)
    combo = [_ZERO] * n
    for mult, con in zip(lam, lp.constraints):
        if mult == 0:
            continue
        coeffs, _ = con.ge_form()
        for j, c in enumerate(coeffs):
            combo[j] += mult * c
    nonneg_mults = tuple(
        (j, -combo[j]) for j in sorted(lp.nonneg_vars) if combo[j] != 0
    )
    witness = FarkasWitness(tuple(lam), nonneg_mults)
    return FeasibilityResult(INFEASIBLE, farkas=witness)


def _pivot(tableau, z, basis, leave, enter, ncols):
    row = tableau[leave]
    piv = row[enter]
    if piv != 1:
        tableau[leave] = row = [v / piv for v in row]
    for other in tableau:
        if other is row:
            continue
        f = other[enter]
        if f != 0:
            for j in range(ncols + 1):
                if row[j] != 0:
                    other[j] -= f * row[j]
    f = z[enter]
    if f != 0:
        for j in range(ncols + 1):
            if row[j] != 0:
                z[j] -= f * row[j]
    basis[leave] = enter
