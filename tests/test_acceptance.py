"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default test run.
"""

import math

import pytest

from charzeta import (brute_totals, count_formula, dirichlet_L, make_field, mahler_measure_mc,
                      recover_factors, riemann_zeta, singular_locus, verify_global,
                      verify_table1)
from charzeta.fibercount import descent_series, fiberwise_totals
from charzeta.finfield import is_prime
from charzeta.globalzeta import CHI5, CHI8
from conftest import (all_fiber_reports, conic_count_brute, expected_singular_points,
                      fiber_conic, fiber_determinant, paper_local_zeta, prime_powers_upto,
                      zeta_series_from_counts)

SURFACES = ("L0", "L1", "L2")
SPACES = ("biprojective", "affine", "nonaffine")


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_01_three_way_count_agreement():
    failures = []
    for sid in SURFACES:
        for p, n in prime_powers_upto(128):
            field = make_field(p, n)
            methods = (brute_totals(sid, field), fiberwise_totals(sid, field),
                       count_formula(sid, p, n))
            for space in SPACES:
                row = tuple(totals.count(space) for totals in methods)
                if len(set(row)) != 1:
                    failures.append((sid, p, n, space, row))
    report("01 three-way count agreement (q <= 128, all spaces)", not failures)


def test_criterion_02_spot_counts():
    checks = [
        (brute_totals("L0", make_field(7)).biprojective, 99),
        (brute_totals("L0", make_field(3)).biprojective, 25),
        (brute_totals("L0", make_field(3, 2)).biprojective, 145),
        (brute_totals("L1", make_field(5)).biprojective, 56),
        (brute_totals("L1", make_field(2)).biprojective, 9),
        (brute_totals("L1", make_field(2, 2)).biprojective, 33),
        (brute_totals("L0", make_field(2)).affine, 5),
        (brute_totals("L1", make_field(2)).affine, 2),
    ]
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        q = p**n
        checks.append((brute_totals("L2", make_field(p, n)).biprojective,
                       q * q + 3 * q + 1))
    report("02 spot counts reproduce the closed formulas",
           all(got == want for got, want in checks))


def test_criterion_03_blind_recovery_p2_p3():
    ok = True
    for sid in SURFACES:
        for p in (2, 3):
            for space in SPACES:
                counts = [t.count(space) for t in descent_series(sid, p, 14)]
                got = recover_factors(counts, p)
                want = paper_local_zeta(sid, p, space)
                ok &= got == want
    report("03 blind local-zeta recovery matches closed forms (p = 2, 3)", ok)


def test_criterion_04_series_agreement_larger_primes():
    ok = True
    for sid in SURFACES:
        for p in (5, 7, 11, 13, 101):
            n_max = 0
            while p ** (n_max + 1) <= 10**6:
                n_max += 1
            implied = {space: paper_local_zeta(sid, p, space).counts(n_max)
                       for space in SPACES}
            for n in range(1, n_max + 1):
                totals = fiberwise_totals(sid, make_field(p, n))
                for space in SPACES:
                    ok &= totals.count(space) == implied[space][n - 1]
    report("04 fiberwise counts equal closed-form series (p in {5,7,11,13,101}, q <= 1e6)", ok)


def test_criterion_05_global_factorisation_per_prime():
    primes = [p for p in range(2, 200) if is_prime(p)]
    ok = True
    for sid in SURFACES:
        entries = verify_global(sid, primes)
        ok &= [e["p"] for e in entries] == primes and all(e["pass"] for e in entries)
    report("05 global factorisation verified at every prime p <= 199", ok)


def test_criterion_06_singular_loci():
    ok = True
    cases = ([(sid, (p, 1)) for sid in ("L0", "L2") for p in (3, 7)]
             + [("L1", (p, 1)) for p in (3, 7, 11, 5)]
             + [(sid, (2, n)) for sid in SURFACES for n in (1, 2, 3)])
    sizes = {("L0", (3, 1)): 4, ("L0", (7, 1)): 4, ("L2", (3, 1)): 4,
             ("L2", (7, 1)): 4, ("L1", (3, 1)): 6, ("L1", (7, 1)): 6,
             ("L1", (11, 1)): 6, ("L1", (5, 1)): 8}
    for sid, (p, n) in cases:
        field = make_field(p, n)
        got = singular_locus(sid, field)
        ok &= got == expected_singular_points(sid, field)
        if (sid, (p, n)) in sizes:
            ok &= len(got) == sizes[(sid, (p, n))]
    report("06 singular loci match the instantiated lists", ok)


def test_criterion_07_special_value_table():
    entries = verify_table1(tol=1e-6)
    report("07 all 9 special-value cells reproduce (orders exact, coeffs 1e-6)",
           len(entries) == 9 and all(e["pass"] for e in entries))


def test_criterion_08_mahler_smyth_check():
    est, stderr = mahler_measure_mc("1+x+y+z", 10**6, 42)
    target = 7 * riemann_zeta(3) / (2 * math.pi**2)
    ok = abs(est - target) < 5e-3 and abs(est - target) <= 4 * stderr
    report("08 Monte Carlo Mahler measure matches 7 zeta(3) / (2 pi^2)", ok)


def test_criterion_09_numeric_engine():
    ok = abs(riemann_zeta(0) + 0.5) < 1e-10
    ok &= abs(riemann_zeta(-1) + 1 / 12) < 1e-10
    ok &= abs(riemann_zeta(-2)) < 1e-8
    eps = 1e-3
    sym = (eps * riemann_zeta(1 + eps) - eps * riemann_zeta(1 - eps)) / 2
    ok &= abs(sym - 1.0) < 1e-5
    ok &= abs(dirichlet_L(CHI5, 0)) < 1e-8
    ok &= abs(dirichlet_L(CHI8, -2)) < 1e-8
    report("09 numeric engine hits the classical anchor values", ok)


def test_criterion_10_property_suites():
    import random
    ok = True
    # Weil integrality of series coefficients
    for sid in SURFACES:
        for p in (2, 3, 5):
            for space in SPACES:
                counts = [count_formula(sid, p, n).count(space) for n in range(1, 11)]
                ok &= all(c.denominator == 1 for c in zeta_series_from_counts(counts))
    # fiber sums equal totals
    for sid in SURFACES:
        for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (7, 1)]:
            field = make_field(p, n)
            total = fiberwise_totals(sid, field).biprojective
            ok &= sum(count for _, count, _ in all_fiber_reports(sid, field)) == total
    # affine + nonaffine = biprojective, each term by another method, since
    # each method sums one of the three from the other two
    for sid in SURFACES:
        for p, n in prime_powers_upto(32):
            field = make_field(p, n)
            ok &= (brute_totals(sid, field).affine + fiberwise_totals(sid, field).nonaffine
                   == count_formula(sid, p, n).biprojective)
    # the fiber rule against P^2 enumeration, 200 random fiber-shaped forms per field
    for p, n in [(2, 2), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]:
        field = make_field(p, n)
        rng = random.Random(1000 + field.q)
        for _ in range(200):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            ok &= fiber_conic(field, a, b, c) == (conic_count_brute(field, (a, a, c, b, 0, 0)),
                                                  fiber_determinant(field, a, b, c) == 0)
    report("10 property suites (integrality, fiber sums, space additivity, conics)", ok)
