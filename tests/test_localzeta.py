"""Zeta series from counts, blind factor recovery, and the paper's local zeta
functions (the per-prime table in conftest)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charzeta import LocalZetaFactors, RecoveryError, count_formula, make_field, recover_factors
from charzeta.varieties import brute_totals
from conftest import paper_local_zeta, zeta_series, zeta_series_from_counts


def counts_by_formula(sid, p, space, k=14):
    return [count_formula(sid, p, n).count(space) for n in range(1, k + 1)]


def test_series_geometric_identity():
    # N_n = 4^n + 1 is exp(-log(1-4T) - log(1-T)) = 1/((1-T)(1-4T))
    coeffs = zeta_series_from_counts([4**n + 1 for n in range(1, 4)])
    assert coeffs == [1, 5, 21, 85]


def test_series_empty_variety():
    assert zeta_series_from_counts([0, 0, 0, 0]) == [1, 0, 0, 0, 0]


def test_series_first_coefficient_is_first_count():
    n1 = brute_totals("L0", make_field(2)).affine
    assert n1 == 5
    assert zeta_series_from_counts([n1]) == [1, 5]


def test_series_newton_recurrence():
    counts = [3, 7, 2, 9, 11]
    c = zeta_series_from_counts(counts)
    for k in range(1, len(counts) + 1):
        assert k * c[k] == sum(counts[j - 1] * c[k - j] for j in range(1, k + 1))


def test_recover_affine_l0_p2():
    got = recover_factors([4**n + 1 for n in range(1, 15)], 2)
    assert got.as_dict() == {4: 1, 1: 1}


def test_recover_biprojective_p2():
    got = recover_factors(counts_by_formula("L0", 2, "biprojective"), 2)
    assert got.as_dict() == {4: 1, 2: 3, 1: 1}
    got = recover_factors(counts_by_formula("L1", 2, "biprojective"), 2)
    # (1-4T)^-1 (1-2T)^-2 (1-T)^-1 (1-4T^2)^-1 with 1-4T^2 = (1-2T)(1+2T)
    assert got.as_dict() == {4: 1, 2: 3, -2: 1, 1: 1}


ALL_SIX = (1, -2, 3, -4, 5, -6)


def product(p, exps):
    """prod_u (1 - u*T)^(-e_u) over u = p^2, -p^2, p, -p, 1, -1, e_u in exps."""
    return LocalZetaFactors.from_dict(p, dict(zip((p * p, -p * p, p, -p, 1, -1), exps)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 101]), st.lists(st.integers(-8, 8), min_size=6, max_size=6))
@example(3, [0] * 6)  # all-zero counts: the empty product
@example(3, list(ALL_SIX))
@example(101, list(ALL_SIX))
def test_recover_factors_round_trip(p, exps):
    # any product over the six units is recovered blind from 14 counts
    f = product(p, exps)
    assert recover_factors(f.counts(14), p) == f


def test_recover_requires_14_counts():
    with pytest.raises(ValueError):
        recover_factors([4**n + 1 for n in range(1, 10)], 2)


def test_recover_rejects_foreign_roots():
    # a foreign root alone, or as a seventh root beside all six units
    cases = [(2, [3**n for n in range(1, 15)])]
    for p, foreign in [(2, 8), (3, 27), (3, 7)]:
        counts = product(p, ALL_SIX).counts(14)
        cases.append((p, [c + foreign**n for n, c in enumerate(counts, 1)]))
    for p, counts in cases:
        with pytest.raises(RecoveryError):
            recover_factors(counts, p)


def test_recover_rejects_corrupted_counts():
    # N_1 and N_6 are the first and last counts solved for, N_7 and N_14
    # the first and last only verified
    for n in (1, 6, 7, 10, 14):
        for p, counts in [(3, counts_by_formula("L0", 3, "biprojective")),
                          (5, product(5, ALL_SIX).counts(14))]:
            counts[n - 1] += 1
            reason = "non-integer exponent" if n <= 6 else "do not regenerate"
            with pytest.raises(RecoveryError, match=reason):
                recover_factors(counts, p)


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_recover_rejects_degenerate_units(p):
    # the six units are not distinct and nonzero, so no solve is unique
    with pytest.raises(RecoveryError, match="singular"):
        recover_factors([0] * 14, p)


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("space", ["biprojective", "nonaffine", "affine"])
def test_recovery_matches_closed_form(sid, p, space):
    got = recover_factors(counts_by_formula(sid, p, space), p)
    assert got == paper_local_zeta(sid, p, space)


def test_round_trip_series():
    for sid in ("L0", "L1", "L2"):
        for p in (2, 3, 7):
            f = paper_local_zeta(sid, p, "biprojective")
            counts = f.counts(14)
            assert zeta_series_from_counts(counts) == zeta_series(f, 14)
            if p in (2, 3):
                assert recover_factors(counts, p) == f


def test_closed_form_examples():
    assert paper_local_zeta("L0", 7).as_dict() == {49: 1, 7: 7, 1: 1}
    assert paper_local_zeta("L0", 3).as_dict() == {9: 1, 3: 6, -3: 1, 1: 1}
    assert paper_local_zeta("L1", 5).as_dict() == {25: 1, 5: 6, 1: 1}
    assert paper_local_zeta("L2", 3).as_dict() == {9: 1, 3: 3, 1: 1}
    assert paper_local_zeta("L0", 7, "affine").as_dict() == {49: 1, 7: 4, 1: 2}
    assert paper_local_zeta("L0", 3, "nonaffine").as_dict() == {3: 3, 1: -1}
    assert paper_local_zeta("L0", 2, "nonaffine").as_dict() == {2: 3}
    assert paper_local_zeta("L1", 2, "affine").as_dict() == {4: 1, 2: -1, -2: 1, 1: 2}


def test_weil_integrality():
    # series coefficients of genuine count sequences are integers
    for sid in ("L0", "L1", "L2"):
        for p in (2, 3, 5):
            for space in ("biprojective", "nonaffine", "affine"):
                counts = counts_by_formula(sid, p, space, k=10)
                for c in zeta_series_from_counts(counts):
                    assert isinstance(c, Fraction) and c.denominator == 1


@st.composite
def _factor_tuples(draw):
    """(p, factors) with units among +-p^j and anywhere else, 0, repeated
    units and both signs of one |u| included, exponents of either sign."""
    p = draw(st.sampled_from((2, 3, 5, 101, 999983)))
    unit = st.one_of(st.sampled_from((p * p, -p * p, p, -p, 1, -1, 0)), st.integers(-10**9, 10**9))
    return p, tuple(draw(st.lists(st.tuples(unit, st.integers(-20, 20)), max_size=8)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_factor_tuples(), st.integers(0, 40))
@example((3, ((9, 1), (-9, 2), (3, -1), (-3, 4), (1, 5), (-1, -6))), 40)
@example((3, ((7, 2), (-7, 1), (7, -3), (0, 4), (2, 1))), 14)  # outside +-3^j
def test_counts_equal_the_naive_sum(factors, k):
    # factors built with the record constructor, not from_dict
    p, factors = factors
    assert LocalZetaFactors(p, factors).counts(k) == [sum(e * u**n for u, e in factors)
                                                      for n in range(1, k + 1)]


def test_factor_validation():
    with pytest.raises(ValueError):
        LocalZetaFactors.from_dict(3, {5: 1})  # 5 is not +-3^j
    with pytest.raises(ValueError, match="unit 5 "):
        LocalZetaFactors.from_dict(3, {9: 1, 5: 1, -1: 2})
    f = LocalZetaFactors.from_dict(3, {9: 1, 3: 0, 1: 2})
    assert f.factors == ((9, 1), (1, 2))  # zero exponents dropped, sorted
    # a zero exponent is dropped before its unit is checked; listed units sort
    assert LocalZetaFactors.from_dict(3, {-1: 4, 5: 0, -9: 1, 3: 2}).factors == (
        (-9, 1), (3, 2), (-1, 4))


def test_implied_counts_match_formula():
    for sid in ("L0", "L1", "L2"):
        for p in (2, 3, 5, 7, 11, 13):
            f = paper_local_zeta(sid, p, "biprojective")
            assert f.counts(8) == counts_by_formula(sid, p, "biprojective", k=8)
