"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Every criterion asserts exact values.  Where a value is not a textbook
figure (the subset-sum codimensions of criterion 3), the criterion carries
its own proof: the argument in its docstring and a hand-built witness that
is checked against the game by brute force, independently of the solver.
"""

import itertools
import time

import pytest

import gamedim as gd
from conftest import exhaustive_codimension, exhaustive_dimension, games_agree_by_hand

CRITERIA_BUDGETS = {1: 5.0, 2: 60.0, 3: 60.0, 4: 60.0, 5: 120.0, 7: 60.0}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cert_log():
    with gd.record_certificates() as log:
        yield log


@pytest.fixture(scope="module")
def example1_dims(cert_log):
    start = time.perf_counter()
    values = {n: gd.dimension(gd.gen_example1(n)) for n in (2, 3, 4, 5)}
    return values, time.perf_counter() - start


@pytest.fixture(scope="module")
def example1_codims(cert_log):
    start = time.perf_counter()
    values = {n: gd.codimension(gd.gen_example1(n)) for n in (2, 3, 4)}
    return values, time.perf_counter() - start


@pytest.fixture(scope="module")
def ssp_results(cert_log, ssp_games):
    start = time.perf_counter()
    results = {}
    for key, game in ssp_games.items():
        dim = gd.dimension(game).value
        witness = gd.codimension(game)
        results[key] = {
            "dim": dim,
            "codim": witness.value,
            "codim_witness": witness,
            "weighted": gd.is_weighted(game),
        }
    return results, time.perf_counter() - start


def ssp_union_by_hand(instance):
    """The 2^(d-1)-part union representation of an SSP yes-game.

    One part per choice c of one gadget player in each of pairs 1..d-1, with
    weight M*a_i on the numbers (M = 2d+1), 2 on each chosen player, 1 on
    both players of pair d, and quota M*b + 2d - 1.  A coalition S with
    a(S) >= b+1 clears every quota, one with a(S) <= b-1 clears none, and
    one with a(S) = b wins the part of c iff it holds all of c and hits
    pair d; so the union wins exactly the coalitions of the game.
    """
    n, d = len(instance.a), instance.d
    big = 2 * d + 1
    pairs = [(n + 2 * j - 1, n + 2 * j) for j in range(1, d + 1)]
    parts = []
    for choice in itertools.product(*pairs[:-1]):
        weights = [big * v for v in instance.a] + [0] * (2 * d)
        for player in choice:
            weights[player - 1] = 2
        for player in pairs[-1]:
            weights[player - 1] = 1
        parts.append(gd.WeightedGame(big * instance.b + 2 * d - 1, weights))
    return gd.combine(gd.UNION, parts)


@pytest.fixture(scope="module")
def corpus(cert_log, acceptance_corpus):
    return acceptance_corpus


def test_criterion_1_example1_dimension(example1_dims):
    values, elapsed = example1_dims
    measured = {n: w.value for n, w in values.items()}
    ok = measured == {2: 2, 3: 3, 4: 4, 5: 5} and elapsed < CRITERIA_BUDGETS[1]
    report(1, ok, f"dim(example1 n=2..5) = {measured} in {elapsed:.2f}s (< 5s)")


def test_criterion_2_example1_codimension(example1_codims):
    values, elapsed = example1_codims
    measured = {n: w.value for n, w in values.items()}
    ok = measured == {2: 2, 3: 4, 4: 8} and elapsed < CRITERIA_BUDGETS[2]
    report(2, ok, f"codim(example1 n=2..4) = {measured} in {elapsed:.2f}s (< 60s)")


def test_criterion_3_subset_sum_dichotomy(ssp_results, ssp_games):
    """SSP yes-games have dim d and codim 2^(d-1); no-games are weighted.

    With parts [3b+1; 3a, pair j], a coalition S wins iff a(S) >= b+1, or
    a(S) = b and S hits every gadget pair.

    Lower bound.  Fix T among the numbers with a(T) = b and take transversals
    t, t' of the d pairs that differ on (at least) pairs i and j, with t
    holding x_i, x_j and t' holding y_i, y_j.  Suppose T+t and T+t' win in
    one weighted part with quota q.  The coalitions u = T+t-x_j+y_i and
    v = T+t'-y_i+x_j have a = b and each misses a pair, so both lose in the
    game; but w(u) + w(v) = w(T+t) + w(T+t') >= 2q, so one of them wins in
    the part, which a part of a union representation cannot allow.  So the
    transversals a part covers differ pairwise on one pair only, and no three
    vectors of {0,1}^d do that: a part covers at most 2 of the 2^d winning
    T+t, and at least 2^(d-1) parts are needed.  This is the bound behind
    codim(example1 d) = 2^(d-1) in criterion 2, since the game restricted
    to T is example1 on the d pairs.

    Upper bound.  ``ssp_union_by_hand`` builds 2^(d-1) weighted parts whose
    union is the game; the check below confirms it by brute force, as it
    does for the solver's own union witnesses.
    """
    results, elapsed = ssp_results
    reference = gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7] + [0] * 4))
    reference3 = gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7] + [0] * 6))
    checks = {
        "dim(yes,d=2)=2": results["yes2"]["dim"] == 2,
        "codim(yes,d=2)=2": results["yes2"]["codim"] == 2,
        "dim(yes,d=3)=3": results["yes3"]["dim"] == 3,
        "codim(yes,d=3)=4": results["yes3"]["codim"] == 4,
        "dim(no,d=2)=1": results["no2"]["dim"] == 1,
        "codim(no,d=2)=1": results["no2"]["codim"] == 1,
        "dim(no,d=3)=1": results["no3"]["dim"] == 1,
        "codim(no,d=3)=1": results["no3"]["codim"] == 1,
        "weighted(no,d=2)~[3;5,7,0..]": results["no2"]["weighted"] is not None
        and gd.equivalent(
            gd.SimpleGame.from_weighted(results["no2"]["weighted"]), reference
        ),
        "weighted(no,d=3)~[3;5,7,0..]": results["no3"]["weighted"] is not None
        and gd.equivalent(
            gd.SimpleGame.from_weighted(results["no3"]["weighted"]), reference3
        ),
        "runtime": elapsed < CRITERIA_BUDGETS[3],
    }
    for key, d in (("yes2", 2), ("yes3", 3)):
        game = ssp_games[key]
        witness = results[key]["codim_witness"]
        checks[f"union witness({key}) = game by hand"] = len(
            witness.parts
        ) == witness.value and games_agree_by_hand(witness.as_game(), game)
        by_hand = ssp_union_by_hand(gd.SSPInstance(3, (1, 2, 3), d))
        checks[f"hand-built union({key}) has 2^(d-1) parts = game by hand"] = len(
            by_hand.parts
        ) == 2 ** (d - 1) and games_agree_by_hand(by_hand, game)
    failed = [name for name, good in checks.items() if not good]
    measured = {
        key: (res["dim"], res["codim"]) for key, res in results.items()
    }
    detail = (
        f"(dim, codim) measured = {measured} in {elapsed:.2f}s; yes-game union "
        f"witnesses and the hand-built 2^(d-1)-part unions match by brute force"
        + (f"; failed: {failed}" if failed else "")
    )
    report(3, not failed, detail)


def test_criterion_4_antichain_bounds_and_canonical_forms(corpus):
    start = time.perf_counter()
    bad = []
    for game in corpus:
        sets = gd.extremal_sets(game)
        if gd.dimension(game).value > len(sets.maximal_losing):
            bad.append(("dim bound", game))
        if gd.codimension(game).value > len(sets.minimal_winning):
            bad.append(("codim bound", game))
        inter = gd.combine(gd.INTERSECTION, gd.canonical_intersection(game))
        union = gd.combine(gd.UNION, gd.canonical_union(game))
        if not gd.equivalent(inter, game):
            bad.append(("canonical intersection", game))
        if not gd.equivalent(union, game):
            bad.append(("canonical union", game))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < CRITERIA_BUDGETS[4]
    report(
        4,
        ok,
        f"{len(corpus)} games: dim <= |max losing|, codim <= |min winning|, "
        f"canonical forms recombine exactly in {elapsed:.2f}s (< 60s)"
        + (f"; violations: {bad[:3]}" if bad else ""),
    )


def test_criterion_5_duality_identities(corpus):
    """dim(g) = codim(dual g), and codimension equals an independent minimum.

    The solver computes codimension with the same separation LPs as
    dimension, on complemented coalitions, so the identity alone would
    compare one computation with itself.  ``exhaustive_codimension`` decides
    each block with a union-oriented LP built in the test suite instead.
    """
    start = time.perf_counter()
    bad = []
    checked = 0
    for game in corpus:
        if not gd.equivalent(gd.dual(gd.dual(game)), game):
            bad.append(("involution", game))
        if gd.dimension(game).value != gd.codimension(gd.dual(game)).value:
            bad.append(("dim vs dual codim", game))
        if len(gd.minimal_winning(game)) <= 6:
            checked += 1
            if gd.codimension(game).value != exhaustive_codimension(game):
                bad.append(("codim vs exhaustive union search", game))
    if checked < 10:
        bad.append(("exhaustive codim games", checked))

    # Dualising a composite representation must be a single linear pass.
    stream = gd.splitmix64(17)
    parts = []
    for _ in range(8000):
        weights = [next(stream) % 5 for _ in range(10)]
        weights[next(stream) % 10] += 1
        parts.append(gd.WeightedGame(1 + next(stream) % sum(weights), weights))
    big = gd.combine(gd.INTERSECTION, parts)
    convert_start = time.perf_counter()
    converted = gd.dual(big)
    convert_elapsed = time.perf_counter() - convert_start
    if converted.form != gd.UNION or len(converted.parts) != len(parts):
        bad.append(("conversion shape", None))
    if any(
        gd.dual_weighted(d) != p for d, p in zip(converted.parts, parts)
    ):
        bad.append(("conversion parts", None))
    if convert_elapsed > 0.5:
        bad.append(("conversion time", convert_elapsed))

    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < CRITERIA_BUDGETS[5]
    report(
        5,
        ok,
        f"dual involution and dim(g)=codim(dual g) on {len(corpus)} games; "
        f"codim equals the exhaustive union-LP minimum on {checked} games; "
        f"8000-part representation dualised in {convert_elapsed * 1000:.0f}ms; "
        f"total {elapsed:.2f}s (< 120s)" + (f"; violations: {bad[:3]}" if bad else ""),
    )


def test_criterion_6_conversion_blowup(example1_codims):
    values, _ = example1_codims
    union_sizes = {n: len(w.parts) for n, w in values.items()}
    input_sizes = {n: len(gd.gen_example1(n).parts) for n in (2, 3, 4)}
    ok = union_sizes == {2: 2, 3: 4, 4: 8} and input_sizes == {2: 2, 3: 3, 4: 4}
    report(
        6,
        ok,
        f"minimal union sizes {union_sizes} vs intersection inputs {input_sizes}: "
        f"the converted representation doubles per extra pair",
    )


def test_criterion_7_solver_cross_validation(corpus):
    start = time.perf_counter()
    checked = 0
    bad = []
    for game in corpus:
        if len(gd.maximal_losing(game)) > 6:
            continue
        checked += 1
        if gd.dimension(game).value != exhaustive_dimension(game):
            bad.append(game)
    elapsed = time.perf_counter() - start
    ok = not bad and checked >= 10 and elapsed < CRITERIA_BUDGETS[7]
    report(
        7,
        ok,
        f"search equals exhaustive partition minimum on {checked} games with "
        f"at most 6 losing targets in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_8_certificate_reverification(cert_log):
    failures = 0
    for program, result in cert_log:
        try:
            gd.verify_certificate(program, result)
        except gd.CertificateError:
            failures += 1
    ok = failures == 0 and len(cert_log) > 100
    report(
        8,
        ok,
        f"{len(cert_log)} recorded solver certificates re-verified by exact "
        f"substitution, {failures} failures (zero tolerance)",
    )
