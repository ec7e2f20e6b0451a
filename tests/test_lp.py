"""Exact feasibility solver: certificates, determinism, and brute-force agreement."""

import threading
from decimal import Decimal
from fractions import Fraction

import pytest

import gamedim as gd
from gamedim.generators import splitmix64


def lp_of(rows, num_vars):
    """The system of (coeffs, rhs) rows coeffs . x >= rhs."""
    return gd.LinearProgram(num_vars, tuple(gd.Constraint(c, rhs) for c, rhs in rows))


def vertex_feasible(lp):
    """Independent oracle: every variable is sign-constrained, so the system is pointed.

    A nonempty region inside the nonnegative orthant has a vertex, and every
    vertex solves some square subsystem of active rows (including the x_j >= 0
    rows), so checking all square subsystems decides feasibility exactly.
    """
    n = lp.num_vars
    rows = [(con.coeffs, con.rhs) for con in lp.constraints]
    for j in range(n):
        unit = tuple(Fraction(int(k == j)) for k in range(n))
        rows.append((unit, Fraction(0)))

    def satisfied(point):
        for coeffs, rhs in rows:
            if sum(Fraction(c) * x for c, x in zip(coeffs, point)) < Fraction(rhs):
                return False
        return True

    import itertools

    for subset in itertools.combinations(range(len(rows)), n):
        matrix = [[Fraction(c) for c in rows[i][0]] for i in subset]
        rhs = [Fraction(rows[i][1]) for i in subset]
        point = solve_square(matrix, rhs)
        if point is not None and satisfied(point):
            return True
    return False


def solve_square(matrix, rhs):
    """Gaussian elimination over Fractions; None on a singular matrix."""
    n = len(matrix)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(row[n] for row in a)


class TestSpecSystems:
    def test_contradictory_bounds(self):
        lp = lp_of([((1,), 1), ((-1,), 0)], 1)
        result = gd.solve_feasibility(lp)
        assert not result.feasible
        # 1*(w >= 1) + 1*(-w >= 0) recombines to 0 >= 1.
        assert result.farkas.row_multipliers == (1, 1) and result.denominator == 1
        gd.verify_certificate(lp, result)

    def test_interval(self):
        lp = lp_of([((1,), 1), ((-1,), -2)], 1)
        result = gd.solve_feasibility(lp)
        assert result.feasible
        assert 1 <= Fraction(result.assignment[0], result.denominator) <= 2

    def test_example1_nonweightedness_system(self):
        # w1+w3 >= q, w2+w4 >= q, q-w1-w2 >= 1, q-w3-w4 >= 1, w >= 0, q >= 1:
        # summing the four coalition rows forces 0 >= 2.
        lp = lp_of(
            [
                ((1, 0, 1, 0, -1), 0),
                ((0, 1, 0, 1, -1), 0),
                ((-1, -1, 0, 0, 1), 1),
                ((0, 0, -1, -1, 1), 1),
                ((0, 0, 0, 0, 1), 1),
            ],
            5,
        )
        result = gd.solve_feasibility(lp)
        assert not result.feasible
        gd.verify_certificate(lp, result)


class TestCertificates:
    def test_feasible_assignment_satisfies_exactly(self):
        lp = lp_of([((2, 3), 7), ((-1, 1), -1), ((0, -1), -5)], 2)
        result = gd.solve_feasibility(lp)
        assert result.feasible
        gd.verify_certificate(lp, result)

    def test_verifier_rejects_corrupted_assignment(self):
        lp = lp_of([((1,), 3)], 1)
        result = gd.solve_feasibility(lp)
        forged = gd.FeasibilityResult(assignment=(0,))
        with pytest.raises(gd.CertificateError, match="violates row 0"):
            gd.verify_certificate(lp, forged)
        gd.verify_certificate(lp, result)
        # x_0 + x_1 >= 1 holds at (2, -1), but x_1 >= 0 does not.
        lp = lp_of([((1, 1), 1)], 2)
        negative = gd.FeasibilityResult(assignment=(2, -1))
        with pytest.raises(gd.CertificateError, match="x_1 >= 0"):
            gd.verify_certificate(lp, negative)

    def test_verifier_rejects_corrupted_witness(self):
        lp = lp_of([((1,), 1), ((-1,), 0)], 1)
        result = gd.solve_feasibility(lp)
        forged = gd.FeasibilityResult(farkas=gd.FarkasWitness((1, 0), (0,)))
        with pytest.raises(gd.CertificateError, match="cancel"):
            gd.verify_certificate(lp, forged)
        gd.verify_certificate(lp, result)

    def test_verifier_rejects_inexact_values(self):
        # 3 * 0.333... rounds to 1.0 in floats, but is 1 - 2**-54 exactly;
        # the exact 1/3 is the numerator 1 over the denominator 3.
        lp = lp_of([((3,), 1)], 1)
        gd.verify_certificate(lp, gd.FeasibilityResult(assignment=(1,), denominator=3))
        inexact = gd.FeasibilityResult(assignment=(1 / 3,))
        with pytest.raises(gd.CertificateError, match="not an integer"):
            gd.verify_certificate(lp, inexact)
        lp = lp_of([((1,), 1), ((-1,), 0)], 1)
        inexact = gd.FeasibilityResult(farkas=gd.FarkasWitness((1.0, 1), (0,)))
        with pytest.raises(gd.CertificateError, match="not an integer"):
            gd.verify_certificate(lp, inexact)

    def test_verifier_rejects_sign_row_on_wrong_variable(self):
        # -x_0 >= 1 with x_0, x_1 >= 0: 1 * (-x_0 >= 1) + 1 * (x_0 >= 0) gives 0 >= 1.
        lp = lp_of([((-1, 0), 1)], 2)
        result = gd.solve_feasibility(lp)
        assert result == gd.FeasibilityResult(farkas=gd.FarkasWitness((1,), (1, 0)))
        forged = gd.FeasibilityResult(farkas=gd.FarkasWitness((1,), (0, 1)))
        with pytest.raises(gd.CertificateError, match="cancel"):
            gd.verify_certificate(lp, forged)
        # One sign multiplier per variable, no fewer and no more.
        for signs in ((1,), (1, 0, 0)):
            forged = gd.FeasibilityResult(farkas=gd.FarkasWitness((1,), signs))
            with pytest.raises(gd.CertificateError, match="lacks a full Farkas witness"):
                gd.verify_certificate(lp, forged)

    def test_verifier_substitutes_mixed_denominators_exactly(self):
        # 12 x_0 + 36 x_1 = 9 as a pair of rows; (1/4, 1/6) meets it exactly,
        # written over the denominators 12 and 24.
        lp = lp_of([((12, 36), 9), ((-12, -36), -9)], 2)
        for exact, d in (((3, 2), 12), ((6, 4), 24)):
            gd.verify_certificate(lp, gd.FeasibilityResult(assignment=exact, denominator=d))
        # (1/4 + 1/1000, 1/6) and (1/4 - 1/1000, 1/6) over 12,000.
        for near in ((3012, 2000), (2988, 2000)):
            with pytest.raises(gd.CertificateError, match="violates row"):
                gd.verify_certificate(lp, gd.FeasibilityResult(assignment=near, denominator=12000))

    NOT_INTEGERS = [0.5, 1.0, Fraction(1, 2), Fraction(1), Decimal(1), "1", None]

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_verifier_refuses_a_value_that_is_not_an_integer_in_any_slot(self, value):
        # 1 * (x_0 >= 1) + 1 * (-x_0 >= 0) + 0 * (x_0 >= 0) gives 0 >= 1, and
        # x_0 = 1 meets x_0 >= 1: a value in any slot is checked.
        infeasible = lp_of([((1,), 1), ((-1,), 0)], 1)
        feasible = lp_of([((1,), 1)], 1)
        witness = gd.FarkasWitness((1, 1), (0,))
        gd.verify_certificate(feasible, gd.FeasibilityResult(assignment=(1,)))
        gd.verify_certificate(infeasible, gd.FeasibilityResult(farkas=witness))
        forged = [
            (feasible, gd.FeasibilityResult(assignment=(value,))),
            (feasible, gd.FeasibilityResult(assignment=(1,), denominator=value)),
            (infeasible, gd.FeasibilityResult(farkas=gd.FarkasWitness((value, 1), (0,)))),
            (infeasible, gd.FeasibilityResult(farkas=gd.FarkasWitness((1, value), (0,)))),
            (infeasible, gd.FeasibilityResult(farkas=gd.FarkasWitness((1, 1), (value,)))),
            (infeasible, gd.FeasibilityResult(farkas=witness, denominator=value)),
        ]
        for lp, result in forged:
            with pytest.raises(gd.CertificateError, match="not an integer"):
                gd.verify_certificate(lp, result)

    def test_verifier_refuses_a_denominator_below_one(self):
        # -2 / -1 would meet x_0 >= 1 as a rational; the denominator is refused.
        feasible = lp_of([((1,), 1)], 1)
        infeasible = lp_of([((1,), 1), ((-1,), 0)], 1)
        witness = gd.FarkasWitness((1, 1), (0,))
        gd.verify_certificate(feasible, gd.FeasibilityResult(assignment=(2,), denominator=2))
        for d in (0, -1, -2):
            for lp, result in (
                (feasible, gd.FeasibilityResult(assignment=(-2,), denominator=d)),
                (infeasible, gd.FeasibilityResult(farkas=witness, denominator=d)),
            ):
                with pytest.raises(gd.CertificateError, match="denominator .* is not positive"):
                    gd.verify_certificate(lp, result)

    def test_verifier_refuses_each_witness_of_the_wrong_shape_or_sign(self):
        lp = lp_of([((1, 0), 1), ((-1, 0), 0)], 2)
        assert gd.solve_feasibility(lp).farkas == gd.FarkasWitness((1, 1), (0, 0))
        with pytest.raises(gd.CertificateError, match="feasible result lacks a full assignment"):
            gd.verify_certificate(lp, gd.FeasibilityResult(assignment=(1,)))
        for rows in ((1,), (1, 1, 0)):
            witness = gd.FarkasWitness(rows, (0, 0))
            with pytest.raises(gd.CertificateError, match="infeasible result lacks a full Farkas"):
                gd.verify_certificate(lp, gd.FeasibilityResult(farkas=witness))
        # A multiplier below zero is refused, in a row slot or in a sign slot.
        for witness in (gd.FarkasWitness((2, 1), (-1, 0)), gd.FarkasWitness((1, 1), (0, -1))):
            with pytest.raises(gd.CertificateError, match="negative multiplier"):
                gd.verify_certificate(lp, gd.FeasibilityResult(farkas=witness))
        # 1 * (-x_0 >= 0) + 1 * (x_0 >= 0) cancels x_0 but leaves 0 >= 0.
        witness = gd.FarkasWitness((0, 1), (1, 0))
        with pytest.raises(gd.CertificateError, match="combined right-hand side is not positive"):
            gd.verify_certificate(lp, gd.FeasibilityResult(farkas=witness))

    def test_constraint_takes_integers_only(self):
        con = gd.Constraint((1, 0, -3), 2)
        assert con.coeffs == (1, 0, -3) and con.rhs == 2
        for value in (Fraction(1, 2), Fraction(2), 0.5, 2.0, "1/2", "2", Decimal(2), None):
            with pytest.raises(TypeError):
                gd.Constraint((1, value), 0)
            with pytest.raises(TypeError):
                gd.Constraint((1,), value)

    def test_record_certificates_collects_solves(self):
        lp = lp_of([((1,), 1)], 1)
        with gd.record_certificates() as log:
            gd.solve_feasibility(lp)
            gd.solve_feasibility(lp)
        assert len(log) == 2
        for logged_lp, logged_result in log:
            gd.verify_certificate(logged_lp, logged_result)

    def test_record_certificates_nests(self):
        lp = lp_of([((1,), 1)], 1)
        with gd.record_certificates() as outer:
            gd.solve_feasibility(lp)
            with gd.record_certificates() as inner:
                gd.solve_feasibility(lp)
            gd.solve_feasibility(lp)
        assert len(inner) == 1 and len(outer) == 2

    def test_record_certificates_ignores_other_threads(self):
        lp = lp_of([((1,), 1)], 1)
        with gd.record_certificates() as log:
            worker = threading.Thread(target=gd.solve_feasibility, args=(lp,))
            worker.start()
            worker.join()
            assert log == []
            gd.solve_feasibility(lp)
        assert len(log) == 1


def random_pointed_lp(stream, num_vars, num_rows):
    rows = []
    for _ in range(num_rows):
        coeffs = tuple(next(stream) % 7 - 3 for _ in range(num_vars))
        sign = 1 if next(stream) % 2 else -1
        rhs = next(stream) % 7 - 3
        rows.append((tuple(sign * c for c in coeffs), sign * rhs))
    return lp_of(rows, num_vars)


class TestBruteForceAgreement:
    def test_status_matches_vertex_enumeration(self):
        stream = splitmix64(2024)
        statuses = {True: 0, False: 0}
        for _ in range(120):
            num_vars = 1 + next(stream) % 3
            num_rows = 1 + next(stream) % 4
            lp = random_pointed_lp(stream, num_vars, num_rows)
            result = gd.solve_feasibility(lp)
            expected = vertex_feasible(lp)
            assert result.feasible == expected
            statuses[expected] += 1
        # the sample must exercise both outcomes to mean anything
        assert statuses[True] > 10 and statuses[False] > 10


def separation_lp(n, winning, losing):
    """[q; w] separation rows: w(S) - q >= 0 on winning S, q - w(S) >= 1 on losing S, q >= 1."""

    def row(players, sign):
        return tuple(sign * int(j + 1 in players) for j in range(n)) + (-sign,)

    rows = [(row(s, 1), 0) for s in winning] + [(row(s, -1), 1) for s in losing]
    rows.append(((0,) * n + (1,), 1))
    return lp_of(rows, n + 1)


EXAMPLE1_3_TRANSVERSALS = [
    (a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)
]
# Minimal winning coalitions of gen_random_monotone(8, 6, 1029), a corpus game.
CORPUS_8_6_1029_MWC = [(1, 3), (2, 3, 4, 7), (2, 5, 7), (2, 4, 5, 6, 8), (1, 5, 6, 7, 8)]

# Certificates as the Bland pivot sequence over rationals returns them from
# phase one on the Farkas alternative {y >= 0, A^T y <= 0, b.y = 1}: each
# variable's row starts with its slack basic at 0, and the row b.y = 1 with
# the one artificial, and no pivot follows the artificial's departure.  A
# feasible system's assignment is minus the slack entries of the
# artificial's row over its rhs, the slack columns' reduced costs; an
# infeasible system's multipliers are the basic y and slacks, so b.y = 1.
# (lp, assignment, denominator) for feasible and (lp, row multipliers,
# sign-row multipliers, denominator) for infeasible systems, each value an
# integer over the denominator.
GOLDEN_FEASIBLE = [
    pytest.param(
        separation_lp(6, EXAMPLE1_3_TRANSVERSALS, [(1, 2, 3, 4)]),
        (0, 0, 0, 0, 1, 1, 1), 1,
        id="example1-one-pair",
    ),
    pytest.param(
        separation_lp(
            8, CORPUS_8_6_1029_MWC,
            [(2, 3, 4, 5, 6), (2, 3, 4, 5, 8), (2, 3, 4, 6, 8), (3, 4, 5, 6, 7, 8)],
        ),
        (7, 4, 0, 0, 1, 1, 3, 1, 7), 1,
        id="corpus-8-6-1029",
    ),
]
GOLDEN_INFEASIBLE = [
    pytest.param(
        separation_lp(6, EXAMPLE1_3_TRANSVERSALS, [(1, 2, 3, 4), (1, 2, 5, 6)]),
        # 1/2 on rows 1, 2, 8 and 9; 1 on x_1 >= 0.
        (0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0), (0, 2, 0, 0, 0, 0, 0), 2,
        id="example1-two-pairs",
    ),
    pytest.param(
        separation_lp(8, CORPUS_8_6_1029_MWC, [(1, 2, 4, 5, 6), (2, 3, 4, 5, 8)]),
        # 1/2 on rows 0, 3, 5 and 6 and on x_1, x_3, x_4 >= 0.
        (1, 0, 0, 1, 0, 1, 1, 0), (0, 1, 0, 1, 1, 0, 0, 0, 0), 2,
        id="corpus-8-6-1029",
    ),
    # The is_weighted LP of gen_random_monotone(7, 7, 2006).  Its id is from
    # a start with an artificial on every row, under which Bland's rule
    # brought a departed artificial back when their columns were stored.
    pytest.param(
        separation_lp(
            7, [(3, 4, 5), (3, 6), (4, 7)],
            [(1, 2, 3, 4), (1, 2, 4, 5, 6), (1, 2, 3, 5, 7), (1, 2, 5, 6, 7)],
        ),
        # 1/2, 1/4, 1/4, 1/2, 1/4, 1/4 on rows 0 to 5; 1 on x_0, x_1 >= 0.
        (2, 1, 1, 2, 1, 1, 0, 0), (4, 4, 0, 0, 0, 0, 0, 0), 4,
        id="artificial-not-re-entered",
    ),
    # The is_weighted LP of gen_random_monotone(8, 5, 2002), an infeasible
    # LP with 15 rows over 9 variables.  Its id is from a start with an
    # artificial on each row of rhs > 0, under which a departed artificial
    # would re-enter if the artificial columns were stored.
    pytest.param(
        separation_lp(
            8, [(1, 2, 5), (1, 3, 6, 8), (2, 4, 5, 6, 8)],
            [
                (1, 2, 3, 4, 6, 7), (1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7),
                (1, 2, 3, 4, 7, 8), (1, 3, 4, 5, 7, 8), (2, 3, 4, 5, 7, 8),
                (1, 2, 4, 6, 7, 8), (2, 3, 4, 6, 7, 8), (2, 3, 5, 6, 7, 8),
                (1, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8),
            ],
        ),
        # 1/2 on rows 0, 1, 4 and 6 and on x_2 >= 0; 1 on x_3, x_6 >= 0.
        (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0, 2, 0, 0), 2,
        id="artificial-would-re-enter",
    ),
]


def all_ints(values):
    return all(type(v) is int for v in values)


class TestGoldenCertificates:
    """Exact certificates pinned, so the pivot sequence itself is tested.

    Phase one runs on the Farkas alternative, with one row per variable and
    one row b.y = 1 whose artificial is the only one, and stops as soon as
    that artificial is zero.  Every infeasible case's multipliers therefore
    combine the rows' right-hand sides to exactly 1: to the denominator, in
    numerators.  Every case is solved cold.
    """

    @pytest.mark.parametrize("lp, assignment, denominator", GOLDEN_FEASIBLE)
    def test_feasible_assignment(self, lp, assignment, denominator):
        result = gd.solve_feasibility(lp)
        assert result.feasible and result.farkas is None
        assert result.assignment == assignment and result.denominator == denominator
        assert all_ints((*result.assignment, result.denominator))

    @pytest.mark.parametrize("lp, rows, signs, denominator", GOLDEN_INFEASIBLE)
    def test_infeasible_multipliers(self, lp, rows, signs, denominator):
        result = gd.solve_feasibility(lp)
        assert not result.feasible and result.assignment is None
        assert result.farkas == gd.FarkasWitness(rows, signs)
        assert result.denominator == denominator
        rows, signs = result.farkas.row_multipliers, result.farkas.nonneg_multipliers
        assert all_ints((*rows, *signs, result.denominator))
        assert sum(y * con.rhs for y, con in zip(rows, lp.constraints)) == denominator


def random_integer_lp(stream, num_vars, num_rows):
    def value():
        return next(stream) % 25 - 12

    rows = []
    for _ in range(num_rows):
        coeffs = tuple(value() for _ in range(num_vars))
        sign = 1 if next(stream) % 2 else -1
        rows.append((tuple(sign * c for c in coeffs), sign * value()))
    return lp_of(rows, num_vars)


class TestRandomCertificates:
    def test_integer_systems_certify(self):
        # Entries up to 12 in absolute value: most pivots are on an element p != d.
        stream = splitmix64(31337)
        statuses = {True: 0, False: 0}
        for _ in range(200):
            num_vars = 1 + next(stream) % 3
            num_rows = 1 + next(stream) % 4
            lp = random_integer_lp(stream, num_vars, num_rows)
            result = gd.solve_feasibility(lp)
            gd.verify_certificate(lp, result)
            assert result.feasible == vertex_feasible(lp)
            statuses[result.feasible] += 1
        # both outcomes must occur to mean anything
        assert statuses[True] > 20 and statuses[False] > 20

    def test_tall_systems_certify(self):
        # 20 to 60 rows over 2 to 5 variables.  Each system is built around a
        # random nonnegative integer point x0: every row of an odd-numbered
        # system holds at x0, and every row of an even-numbered one misses it.
        stream = splitmix64(4096)
        statuses = {True: 0, False: 0}
        for k in range(100):
            num_vars = 2 + next(stream) % 4
            num_rows = 20 + next(stream) % 41
            x0 = [next(stream) % 5 for _ in range(num_vars)]
            rows = []
            for _ in range(num_rows):
                coeffs = tuple(next(stream) % 25 - 12 for _ in range(num_vars))
                at_x0 = sum(c * x for c, x in zip(coeffs, x0))
                gap = next(stream) % 4
                rows.append((coeffs, at_x0 - gap if k % 2 else at_x0 + 1 + gap))
            lp = lp_of(rows, num_vars)
            result = gd.solve_feasibility(lp)
            gd.verify_certificate(lp, result)
            assert result.feasible or not k % 2
            statuses[result.feasible] += 1
        # both outcomes must occur
        assert statuses[True] and statuses[False], statuses


def bareiss_pivot(tableau, d, leave, enter):
    """Dense fraction-free pivot: (p * row - row[enter] * pivot_row) / d on every
    entry of every row but the pivot row, each division checked to be exact."""
    pivot_row = tableau[leave]
    p = pivot_row[enter]
    rows = []
    for i, row in enumerate(tableau):
        if i == leave:
            rows.append(list(row))
            continue
        new = []
        for a, b in zip(row, pivot_row):
            quotient, remainder = divmod(p * a - row[enter] * b, d)
            assert remainder == 0
            new.append(quotient)
        rows.append(new)
    return rows, p


class TestPivot:
    def test_matches_dense_bareiss(self):
        # Random pivot sequences from an integer tableau with d = 1; every
        # tableau on the way is d times a rational tableau, as in a solve.
        stream = splitmix64(1968)
        kinds = {"p = d = 1": 0, "p = d > 1": 0, "p != d": 0}
        for _ in range(150):
            num_rows = 2 + next(stream) % 4
            num_cols = 2 + next(stream) % 6
            tableau = [[next(stream) % 9 - 4 for _ in range(num_cols)] for _ in range(num_rows)]
            d = 1
            for _ in range(5):
                cells = [
                    (i, j)
                    for i in range(num_rows)
                    for j in range(num_cols)
                    if tableau[i][j] > 0
                ]
                if not cells:
                    break
                at_d = [(i, j) for i, j in cells if tableau[i][j] == d]
                pool = at_d if at_d and next(stream) % 2 else cells
                leave, enter = pool[next(stream) % len(pool)]
                p = tableau[leave][enter]
                kinds["p != d" if p != d else "p = d = 1" if d == 1 else "p = d > 1"] += 1
                expected, expected_d = bareiss_pivot(tableau, d, leave, enter)
                d = gd.lp._pivot(tableau, d, leave, enter)
                assert d == expected_d
                assert tableau == expected
        assert all(count > 50 for count in kinds.values()), kinds


class TestSolverContract:
    def test_scale_invariance_of_status(self):
        stream = splitmix64(99)
        for _ in range(40):
            num_vars = 1 + next(stream) % 3
            lp = random_pointed_lp(stream, num_vars, 1 + next(stream) % 4)
            scaled_rows = []
            for con in lp.constraints:
                factor = 1 + next(stream) % 5
                scaled_rows.append(
                    gd.Constraint(tuple(factor * c for c in con.coeffs), factor * con.rhs)
                )
            scaled = gd.LinearProgram(lp.num_vars, tuple(scaled_rows))
            assert (
                gd.solve_feasibility(lp).feasible
                == gd.solve_feasibility(scaled).feasible
            )

    def test_deterministic_results(self):
        lp = lp_of(
            [((2, -1, 3), 1), ((-1, -1, -1), -4), ((0, 1, -2), -2)],
            3,
        )
        first = gd.solve_feasibility(lp)
        second = gd.solve_feasibility(lp)
        assert first == second

    def test_empty_system_is_feasible(self):
        result = gd.solve_feasibility(gd.LinearProgram(2, ()))
        assert result.feasible

    def test_zero_row_contradiction(self):
        lp = lp_of([((0, 0), 1)], 2)
        result = gd.solve_feasibility(lp)
        assert not result.feasible
        gd.verify_certificate(lp, result)

    def test_validation(self):
        with pytest.raises(ValueError):
            gd.LinearProgram(2, (gd.Constraint((1,), 0),))
        witness = gd.FarkasWitness((1,), ())
        for assignment, farkas in (((1,), witness), (None, None)):
            with pytest.raises(ValueError, match="exactly one"):
                gd.FeasibilityResult(assignment, farkas)
