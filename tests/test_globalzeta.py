"""Global expressions, Euler factors, verification."""

import pytest

from charzeta import (CHI5, CHI8, CountTotals, ElementaryTerm, GlobalZetaExpr,
                      LocalZetaFactors, ZetaFactorTerm, euler_factor, fibercount,
                      global_expression, laurent_leading, main_term_expression, verify_global)
from charzeta.finfield import is_prime
from charzeta.globalzeta import SPACES, check_local_zeta
from conftest import paper_local_zeta

PRIMES_199 = [p for p in range(2, 200) if is_prime(p)]
PRIMES_10K = [p for p in range(2, 10**4) if is_prime(p)]
# the largest primes the table is checked at: past 10^6, the Mersenne prime
# 2^61 - 1, and the largest prime below 2^63
BIG_PRIMES = [1000003, 2**61 - 1, 9223372036854775783]


def test_characters_tables():
    assert [CHI8(n) for n in (1, 3, 5, 7)] == [1, -1, -1, 1]
    assert [CHI5(n) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]
    assert CHI8(2) == 0 and CHI5(5) == 0


def test_characters_even_and_multiplicative():
    for chi in (CHI8, CHI5):
        m = chi.modulus
        assert chi(-1) == 1
        for a in range(m):
            for b in range(m):
                if chi(a) and chi(b):
                    assert chi(a * b) == chi(a) * chi(b)


def test_characters_match_legendre():
    # Legendre comparison only makes sense at odd primes away from the modulus
    for p in PRIMES_199:
        if p != 2:
            assert CHI8(p) == (1 if pow(2, (p - 1) // 2, p) == 1 else -1)
        if p not in (2, 5):
            assert CHI5(p) == (1 if pow(5, (p - 1) // 2, p) == 1 else -1)
    assert CHI5(2) == -1  # Kronecker value: 2 is inert in Q(sqrt 5)


def _summed(terms, key):
    """The exponents of terms summed per key, without the keys they cancel at."""
    total = {}
    for term in terms:
        total[key(term)] = total.get(key(term), 0) + term.exp
    return {k: e for k, e in total.items() if e}


# the paper's biprojective products, as (kind, shift) and elementary
# (sign, shift) exponents:
BIPROJECTIVE_TOTALS = {
    # zeta(s-2) zeta(s-1)^6 zeta(s) L(chi8, s-1) (1-2^{1-s})^3
    "L0": ({("riemann", 2): 1, ("riemann", 1): 6, ("riemann", 0): 1, ("dirichlet", 1): 1},
           {(1, 1): 3}),
    # zeta(s-2) zeta(s-1)^6 zeta(s) L(chi5, s-1)^2 (1-2^{1-s})^3 (1+2^{1-s})
    "L1": ({("riemann", 2): 1, ("riemann", 1): 6, ("riemann", 0): 1, ("dirichlet", 1): 2},
           {(1, 1): 3, (-1, 1): 1}),
    # zeta(s-2) zeta(s-1)^3 zeta(s)
    "L2": ({("riemann", 2): 1, ("riemann", 1): 3, ("riemann", 0): 1}, {}),
}


def test_expression_transcriptions():
    e = global_expression("L2", "affine")
    kinds = sorted((f.kind, f.shift, f.exp) for f in e.factors)
    assert kinds == [("riemann", 0, 2), ("riemann", 2, 1)]
    assert [(el.p, el.sign, el.shift, el.exp) for el in e.elementary] == [(2, 1, 0, 1)]

    # the biprojective product lists the affine factors, then the non-affine
    # ones, and sums to the paper's product; the (1 - 2^{-s})^{+-1} pair cancels
    for sid, (factors, elementary) in BIPROJECTIVE_TOTALS.items():
        e, a, na = (global_expression(sid, space) for space in ("biprojective", "affine",
                                                                "nonaffine"))
        assert (e.factors, e.elementary) == (a.factors + na.factors,
                                             a.elementary + na.elementary), sid
        assert _summed(e.factors, lambda f: (f.kind, f.shift)) == factors, sid
        assert _summed(e.elementary, lambda el: (el.sign, el.shift)) == elementary, sid

    e = global_expression("L1", "nonaffine")
    assert sorted((f.kind, f.shift, f.exp) for f in e.factors) == [
        ("riemann", 0, -2), ("riemann", 1, 4)]
    assert [(el.sign, el.shift, el.exp) for el in e.elementary] == [(1, 0, -1)]


def test_euler_factor_examples():
    assert euler_factor(global_expression("L0", "affine"), 2).as_dict() == {4: 1, 1: 1}
    assert euler_factor(global_expression("L0", "affine"), 7).as_dict() == {49: 1, 7: 4, 1: 2}
    got = euler_factor(global_expression("L1", "biprojective"), 2)
    assert got.as_dict() == {4: 1, 2: 3, -2: 1, 1: 1}
    got = euler_factor(global_expression("L1", "affine"), 2)
    assert got.as_dict() == {4: 1, 2: -1, -2: 1, 1: 2}


def test_euler_factor_dedekind_cases():
    # split (2/7) = 1, inert (2/3) = -1, ramified p = 2 for Q(sqrt 2)
    e = global_expression("L0", "affine")
    assert euler_factor(e, 7).as_dict()[7] == 4       # 2 + 2e from split Dedekind
    assert euler_factor(e, 3).as_dict()[-3] == 1      # inert contributes (1 + pT)^-1
    assert euler_factor(e, 2).as_dict() == {4: 1, 1: 1}


def test_dirichlet_factor_trivial_at_own_prime():
    e = global_expression("L1", "biprojective")
    assert euler_factor(e, 5) == paper_local_zeta("L1", 5, "biprojective")


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("space", ["affine", "biprojective", "nonaffine"])
def test_euler_equals_closed_form_upto_199(sid, space):
    # the global product against the paper's per-prime table
    expr = global_expression(sid, space)
    for p in PRIMES_199:
        assert euler_factor(expr, p) == paper_local_zeta(sid, p, space), (sid, space, p)


def test_euler_equals_closed_form_beyond_199():
    # with the test above, at every prime below 10^4 and at three beyond
    primes = [p for p in PRIMES_10K if p > 199] + BIG_PRIMES
    assert all(map(is_prime, BIG_PRIMES))
    for sid in ("L0", "L1", "L2"):
        for space in SPACES:
            expr = global_expression(sid, space)
            bad = [p for p in primes if euler_factor(expr, p) != paper_local_zeta(sid, p, space)]
            assert bad == [], (sid, space)


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_affine_is_quotient_at_every_prime(sid):
    for p in PRIMES_199:
        a = euler_factor(global_expression(sid, "affine"), p)
        b = euler_factor(global_expression(sid, "biprojective"), p)
        na = euler_factor(global_expression(sid, "nonaffine"), p)
        quotient = b.as_dict()
        for u, e in na.factors:
            quotient[u] = quotient.get(u, 0) - e
        assert a == LocalZetaFactors.from_dict(p, quotient), (sid, p)


def test_elementary_term_alone_is_a_numerator_factor():
    # in every transcribed product each elementary unit is also a zeta or L
    # unit; alone, (1 - 2^{-s}) (1 + 2^{1-s})^2 is the numerator
    # (1 - T)(1 + 2T)^2 at p = 2 and trivial at every other prime
    expr = GlobalZetaExpr((), (ElementaryTerm(2, 1, 0, 1), ElementaryTerm(2, -1, 1, 2)))
    assert euler_factor(expr, 2).as_dict() == {1: -1, -2: -2}
    assert euler_factor(expr, 3).as_dict() == {}


def test_unknown_factor_kind_is_refused():
    # a kind no reader takes (the paper's zeta_K is written as zeta * L(chi_d))
    # is refused, never read as some other factor
    expr = GlobalZetaExpr((ZetaFactorTerm("dedekind", 1, 1),), ())
    with pytest.raises(ValueError, match="factor kind"):
        euler_factor(expr, 7)
    with pytest.raises(ValueError, match="factor kind"):
        laurent_leading(expr, 1)


def test_main_term_strips_elementary():
    for sid in ("L0", "L1", "L2"):
        mt = main_term_expression(sid)
        assert mt.elementary == ()
        assert mt.factors == global_expression(sid, "affine").factors


def test_verify_global_small_primes():
    for sid in ("L0", "L1", "L2"):
        report = verify_global(sid, [2, 3, 5, 7, 11])
        assert [r["p"] for r in report] == [2, 3, 5, 7, 11]
        for r in report:
            assert r["pass"], r
            assert r["mode"] == ("recovered" if r["p"] in (2, 3) else "series")
            assert set(r["spaces"]) == {"affine", "biprojective", "nonaffine"}


def test_series_mismatch_is_located(monkeypatch):
    # N_2 of the affine counts one too high at a series-mode prime: that
    # space fails at n = 2, the others pass, and the record names n = 2
    descent_series = fibercount.descent_series

    def bumped(model, p, k):
        series = descent_series(model, p, k)
        t = series[1]
        series[1] = CountTotals(t.surface, t.p, t.n, t.biprojective, t.affine + 1, t.nonaffine)
        return series

    monkeypatch.setattr(fibercount, "descent_series", bumped)
    record = check_local_zeta("L1", 5)
    assert record["mode"] == "series"
    assert [record["spaces"][space]["first_mismatch_n"] for space in SPACES] == [2, None, None]
    assert [record["spaces"][space]["pass"] for space in SPACES] == [False, True, True]
    assert record["fiberwise_vs_formula"] == {"pass": False, "first_mismatch_n": 2}
    assert record["pass"] is False


def test_verify_global_reports_modes_distinctly():
    rep = verify_global("L2", [2, 13])
    by_p = {r["p"]: r for r in rep}
    assert by_p[2]["spaces"]["affine"].get("recovered") is not None
    assert by_p[13]["spaces"]["affine"].get("checked_n") is not None
