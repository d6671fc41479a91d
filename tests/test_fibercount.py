"""Fiber forms, fiberwise counting, degenerate fibers, and count formulas."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charzeta import (CountTotals, FieldError, SurfaceModel, brute_totals, count_formula,
                      degenerate_fibers, fiberwise_totals, is_prime, make_field, singular_locus,
                      surface)
from charzeta import fibercount, globalzeta
from charzeta.fibercount import (_bundle_loci, _fiber_class, _fiber_forms, _fiber_singular_span,
                                 _lift_sum, _line_count, _locus_factors, _rational_split,
                                 _square_root, _zmul, _zw_values, descent_series)
from charzeta.finfield import Field, low_degree_factors, split_roots
from charzeta.intpoly import IntPoly
from conftest import (_scalar_tables, all_fiber_reports, bihomogeneous, canonical_coords,
                      conic_bundle, conic_count_brute, eval_scalar, fiber_conic,
                      fiber_determinant, fiber_form, fiberwise_totals_fq, generated_models,
                      model_with_points_over_w0, p1_reps, p2_reps, paper_local_zeta,
                      prime_powers_upto, schoolbook_mul, ternary)


def test_fiber_form_examples():
    f7, l0 = make_field(7), surface("L0")
    # fiber at (1:0) is u^2 = 0
    assert fiber_form(l0, (1, 0), f7) == (0, 0, 1)
    # fiber at (0:1) is -xy = 0
    assert fiber_form(l0, (0, 1), f7) == (0, 6, 0)
    # fiber at (1:1) over F_5 equals (x - y)^2 - u^2 = ((x-y)-u)((x-y)+u)
    f5 = make_field(5)
    assert fiber_form(l0, (1, 1), f5) == (1, 3, 4)


def test_fiber_form_reproduces_surface_polynomial():
    for sid in ("L0", "L1", "L2"):
        for p, n in [(3, 1), (5, 1), (2, 2), (7, 1)]:
            field = make_field(p, n)
            m = surface(sid)
            F = bihomogeneous(m)
            for z in list(range(min(field.q, 6))) + [1]:
                w = 1 if z != 1 else 0
                coeffs = ternary(*fiber_form(m, (z, w), field))
                for x, y, u in [(1, 2 % field.q, 1), (0, 1, 1), (1, 1, 0), (2 % field.q, 3 % field.q, 1)]:
                    form_val = 0
                    for coef, mono in zip(coeffs, ((x, x), (y, y), (u, u), (x, y), (x, u), (y, u))):
                        form_val = field.add(form_val, field.mul(coef, field.mul(*mono)))
                    direct = eval_scalar(F, field, (x, y, u, z, w))
                    assert form_val == direct


def _forms_by_powers(field, forms, z, w):
    """Each form sum_k c_k z^k w^(d-k) with the monomials by pow_ and the
    products by schoolbook_mul, summed by Field.add."""
    out = []
    for coeffs in forms:
        d, total = len(coeffs) - 1, 0
        for k, c in enumerate(coeffs):
            mono = schoolbook_mul(field, field.pow_(z, k), field.pow_(w, d - k))
            total = field.add(total, schoolbook_mul(field, field.int_(c), mono))
        out.append(total)
    return out


def test_zw_values_match_powers_at_any_base():
    # _zw_values at (z : w) with w other than 1 too, as singular_locus reads
    # the bases (1 : t): at every point of P^1(F_q) for q in {4, 9, 27, 49},
    # in both charts (z : 1) and (1 : t), and at seeded pairs at 2^11, at
    # 3^6 and in the residue field F_103[z]/(z^2 + z - 1) of L1's quadratic
    # closed point
    rng = random.Random(35)
    cases = []
    for p, n in [(2, 2), (3, 2), (3, 3), (7, 2)]:
        field = make_field(p, n)
        cases.append((field, p1_reps(field) + [(1, t) for t in range(field.q)] + [(0, 1)]))
    for field in (make_field(2, 11), make_field(3, 6), Field(103, 2, modulus=(102, 1, 1))):
        q = field.q
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(40)]
        cases.append((field, pairs + [(1, 0), (0, 1), (q - 1, q - 1)]))
    for sid in ("L0", "L1", "L2"):
        forms = _fiber_forms(surface(sid))
        for field, bases in cases:
            for z, w in bases:
                assert _zw_values(field, forms, z, w) == _forms_by_powers(field, forms, z, w), \
                    (sid, field, z, w)


def test_count_fiberwise_examples():
    assert fiberwise_totals("L0", make_field(7)).biprojective == 99
    assert degenerate_fibers("L0", make_field(7)) == [(0, 1), (1, 0), (1, 1), (1, 2), (1, 5),
                                                       (1, 6)]
    assert fiberwise_totals("L1", make_field(5)).biprojective == 56
    assert fiberwise_totals("L2", make_field(3, 2)).biprojective == 109  # q^2 + 3q + 1 at q = 9


def test_degenerate_fiber_base_points():
    assert degenerate_fibers("L0", make_field(3)) == [(0, 1), (1, 0), (1, 1), (1, 2)]
    # over F_9 the two extra fibers at the square roots of 1/2 appear
    assert len(degenerate_fibers("L0", make_field(3, 2))) == 6
    f9 = make_field(3, 2)
    for _, t in degenerate_fibers("L0", f9):
        if t not in (0, 1, f9.neg(1)):
            # 2 t^2 = 1 marks the fibers at 1/sqrt(2)
            assert f9.mul(f9.int_(2), f9.mul(t, t)) == 1
    # F_4: the two cube roots of unity from T^2 + T + 1 show up for L1
    assert degenerate_fibers("L1", make_field(2, 2)) == [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]


def test_degenerate_fiber_case_table():
    # L0: 6 when sqrt(2) exists (odd p), else 4; 3 at p = 2
    assert len(degenerate_fibers("L0", make_field(7))) == 6
    assert len(degenerate_fibers("L0", make_field(3))) == 4
    assert len(degenerate_fibers("L0", make_field(2))) == 3
    assert len(degenerate_fibers("L0", make_field(2, 2))) == 3
    # L1: 8 split / 4 inert / 6 at p = 5 / 5 at p = 2 with cube roots, else 3
    assert len(degenerate_fibers("L1", make_field(11))) == 8
    assert len(degenerate_fibers("L1", make_field(13))) == 4
    assert len(degenerate_fibers("L1", make_field(13, 2))) == 8
    assert len(degenerate_fibers("L1", make_field(5))) == 6
    assert len(degenerate_fibers("L1", make_field(2))) == 3
    assert len(degenerate_fibers("L1", make_field(2, 2))) == 5
    # L2: always 4 (odd) or 3 (p = 2)
    assert len(degenerate_fibers("L2", make_field(7))) == 4
    assert len(degenerate_fibers("L2", make_field(2, 3))) == 3


def test_smooth_fibers_contribute_q_plus_one():
    for sid in ("L0", "L1", "L2"):
        for p, n in [(3, 1), (7, 1), (2, 2), (5, 1)]:
            field = make_field(p, n)
            reports = all_fiber_reports(sid, field)
            assert len(reports) == field.q + 1
            for base, count, degenerate in reports:
                if not degenerate:
                    assert count == field.q + 1
                    assert fiber_determinant(field, *fiber_form(sid, base, field))


def test_fiber_sum_equals_total():
    for sid in ("L0", "L1", "L2"):
        for p, n in [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (11, 1)]:
            field = make_field(p, n)
            total = fiberwise_totals(sid, field).biprojective
            assert sum(count for _, count, _ in all_fiber_reports(sid, field)) == total


def test_char2_fiber_counts_against_dumb_enumeration():
    # independent oracle: evaluate the fiber form at every P^2 representative
    from conftest import p2_reps
    for sid in ("L0", "L1", "L2"):
        for n in (1, 2, 3):
            field = make_field(2, n)
            for z, w in [(t, 1) for t in range(field.q)] + [(1, 0)]:
                coeffs = ternary(*fiber_form(sid, (z, w), field))
                dumb = 0
                for (x, y, u) in p2_reps(field):
                    v = 0
                    for coef, (m1, m2) in zip(coeffs, ((x, x), (y, y), (u, u),
                                                       (x, y), (x, u), (y, u))):
                        v = field.add(v, field.mul(coef, field.mul(m1, m2)))
                    dumb += v == 0
                assert fiber_conic(field, *fiber_form(sid, (z, w), field))[0] == dumb


_PROPERTY_FIELDS = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 7) if p**n <= 64]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["L0", "L1", "L2"]), st.sampled_from(_PROPERTY_FIELDS), st.data())
def test_char2_fiber_counts_property(sid, pn, data):
    # the one fiber rule, in every characteristic, against P^2 enumeration at
    # q <= 64; half of the draws are degenerate fibers, which a uniform z
    # would rarely hit
    field = make_field(*pn)
    base = data.draw(st.one_of(
        st.sampled_from(degenerate_fibers(sid, field)),
        st.integers(0, field.q - 1).map(lambda z: (z, 1))))
    form = fiber_form(sid, base, field)
    assert fiber_conic(field, *form) == (conic_count_brute(field, ternary(*form)),
                                         fiber_determinant(field, *form) == 0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (5, 2), (3, 3), (2, 5)])
def test_conic_rule_vs_enumeration(p, n):
    # every form a(x^2 + y^2) + bxy + cu^2 for q <= 9, 200 seeded ones above
    field = make_field(p, n)
    if field.q <= 9:
        forms = itertools.product(range(field.q), repeat=3)
    else:
        rng = random.Random(field.q)
        forms = [tuple(rng.randrange(field.q) for _ in range(3)) for _ in range(200)]
    for a, b, c in forms:
        assert fiber_conic(field, a, b, c) == (conic_count_brute(field, ternary(a, b, c)),
                                               fiber_determinant(field, a, b, c) == 0), (a, b, c)


@pytest.mark.parametrize("model", [
    model_with_points_over_w0(),
    # L0 with 2x^2 z in place of x^2 z: the x^2 and y^2 coefficients differ
    SurfaceModel("L0+x^2z", IntPoly(surface("L0").f.vars,
                                    {**surface("L0").f.terms, (2, 0, 1): 2})),
], ids=["xu-term", "unequal-squares"])
def test_fiber_readers_refuse_other_shapes(model):
    # the shape is checked once per model, so every reader of its fibers
    # raises the ValueError that the CLI maps to exit code 2
    field = make_field(5)
    readers = [lambda: descent_series(model, 5, 1), lambda: degenerate_fibers(model, field),
               lambda: singular_locus(model, field)]
    for read in readers:
        with pytest.raises(ValueError, match=re.escape(
                f"{model.id}: fiber forms outside the supported shape")):
            read()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_fiber_singular_span_matches_enumeration(p, n):
    # every form a(x^2 + y^2) + bxy + cu^2 for q <= 9: the canonical points
    # spanned are the common zeros of F_x = 2ax + by, F_y = bx + 2ay and
    # F_u = 2cu, or, where those are the plane, the zeros of the form
    field = make_field(p, n)
    add, mul, _ = _scalar_tables(p, n)
    plane = p2_reps(field)
    for a, b, c in itertools.product(range(field.q), repeat=3):
        if a == b == c == 0:
            with pytest.raises(FieldError, match="whole plane"):
                _fiber_singular_span(field, a, b, c)
            continue
        two_a, two_c = add[a][a], add[c][c]
        want = [(x, y, u) for x, y, u in plane if add[mul[two_a][x]][mul[b][y]] == 0
                and add[mul[b][x]][mul[two_a][y]] == 0 and mul[two_c][u] == 0]
        if len(want) == len(plane):
            want = [(x, y, u) for x, y, u in plane if add[mul[a][add[mul[x][x]][mul[y][y]]]][
                add[mul[b][mul[x][y]]][mul[c][mul[u][u]]]] == 0]
        span = _fiber_singular_span(field, a, b, c)
        if len(span) == 2:
            v0, v1 = span
            span = [tuple(add[x][mul[t][y]] for x, y in zip(v0, v1))
                    for t in range(field.q)] + [v1]
        assert sorted(span) == sorted(want), (a, b, c)


def test_scalar_classifier_agrees_with_scan():
    for sid in ("L0", "L1", "L2"):
        for p, n in [(3, 2), (5, 1), (2, 2), (7, 1)]:
            field = make_field(p, n)
            degenerate = set(degenerate_fibers(sid, field))
            for base in p1_reps(field):
                assert fiber_conic(field, *fiber_form(sid, base, field))[1] == (
                    canonical_coords(field, base) in degenerate), base


def _determinant_zeros(model, field):
    """The canonical bases of P^1(F_q) over which the fiber's determinant vanishes."""
    return sorted(canonical_coords(field, base) for base in p1_reps(field)
                  if fiber_determinant(field, *fiber_form(model, base, field)) == 0)


def test_degenerate_fibers_are_where_the_determinant_vanishes():
    # every base of P^1(F_q) whose fiber's determinant vanishes, and no
    # other, for the three surfaces and the generated models; none is refused
    fields = [make_field(p, n) for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                            (11, 1), (13, 1), (2, 4), (5, 2), (3, 3), (7, 2)]]
    models = [surface(sid) for sid in ("L0", "L1", "L2")] + generated_models()
    assert len(models) * len(fields) == 546
    for model in models:
        for field in fields:
            assert degenerate_fibers(model, field) == _determinant_zeros(model, field), \
                (model.id, field.q)


def test_count_formula_examples():
    assert count_formula("L0", 3, 2).biprojective == 145
    assert count_formula("L1", 2, 2).biprojective == 33
    assert count_formula("L1", 11, 1).affine == 168
    assert count_formula("L2", 3, 1) == CountTotals("L2", 3, 1, 19, 11, 8)


def test_count_formula_branches():
    # all four L1 branches
    assert count_formula("L1", 11, 1).biprojective == 121 + 88 + 1      # (5/11) = 1
    assert count_formula("L1", 13, 1).biprojective == 169 + 52 + 1      # inert, n odd
    assert count_formula("L1", 13, 2).biprojective == 169**2 + 4 * 169 + 1 + 4 * 169
    assert count_formula("L1", 5, 3).biprojective == 125**2 + 6 * 125 + 1
    # L0 inert parity term
    assert count_formula("L0", 3, 1).biprojective == 9 + 15 + 1
    assert count_formula("L0", 3, 2).biprojective == 81 + 45 + 1 + 18


def test_count_formula_guards():
    with pytest.raises(FieldError):
        count_formula("L0", 6, 1)
    with pytest.raises(FieldError):
        count_formula("L0", 2, 64)  # 2^64 > 2^63
    with pytest.raises(FieldError):
        count_formula("L0", 3, 10**8)  # refused before 3^(10^8) is formed
    # a CountTotals answers only for the three spaces, not for its other fields
    totals = count_formula("L0", 5, 1)
    for name in ("projective", "p", "surface"):
        with pytest.raises(ValueError):
            totals.count(name)


def test_descent_series_guards():
    for k in (0, -1):
        with pytest.raises(ValueError):
            descent_series("L0", 3, k)
    # no field beyond F_{p^2} is built, so p^n past 2^63 is fine
    closed_form = paper_local_zeta("L0", 3, "biprojective")
    assert [t.biprojective for t in descent_series("L0", 3, 40)] == closed_form.counts(40)
    # an id and its model give one series; an unregistered model with L0's
    # equation gives the same counts under its own id
    copy = conic_bundle("L0 copy", [0, 1], [-1, 0, -1], [0, -2, 0, 1])
    assert copy.f.terms == surface("L0").f.terms
    totals = descent_series("L0", 5, 3)
    assert descent_series(surface("L0"), 5, 3) == totals
    assert descent_series(copy, 5, 3) == [CountTotals("L0 copy", 5, t.n, t.biprojective,
                                                      t.affine, t.nonaffine) for t in totals]


# the 24 largest primes below 10^6, the pool of the bigprime benchmark workload
_BIG_PRIMES = [p for p in range(10**6 - 400, 10**6) if is_prime(p)][-24:]
# every p^n <= 10^6 with p <= 199, 2^n <= 512, and the 24 largest primes below 10^6
_GATE_FIELDS = ([(p, n) for p in range(2, 200) if is_prime(p) for n in range(1, 20)
                 if p**n <= (512 if p == 2 else 10**6)]
                + [(p, 1) for p in _BIG_PRIMES])


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_descent_equals_fq_oracle(sid):
    assert len(_GATE_FIELDS) == 174
    for p, n in _GATE_FIELDS:
        field = make_field(p, n)
        totals, reports = fiberwise_totals_fq(sid, field)
        assert fiberwise_totals(sid, field) == totals, (p, n)
        # the descent's bases, with the points over each counted in F_q
        assert [(base, fiber_conic(field, *fiber_form(sid, base, field))[0])
                for base in degenerate_fibers(sid, field)] == reports, (p, n)


def test_fiberwise_equals_formula_beyond_old_caps():
    # every p^n <= 2^63 for each p, the largest field through fiberwise_totals
    top = {p: max(n for n in range(1, 64) if p**n <= 1 << 63) for p in (2, 3, 5, 7, 101, 1000003)}
    top[3037000493] = 2  # the largest p with p^2 <= 2^63
    for sid in ("L0", "L1", "L2"):
        for p, k in top.items():
            series = descent_series(sid, p, k)
            assert series == [count_formula(sid, p, n) for n in range(1, k + 1)], (sid, p)
            assert fiberwise_totals(sid, make_field(p, k)) == series[-1], (sid, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lift_sum_matches_counts_over_extensions(p):
    # the forms a(x^2 + y^2) + bxy + cu^2 over F_p, classified there and
    # tallied by _lift_sum, against the same forms counted over F_{p^e}, one
    # by one and summed over all of them, as the descent sums a degree
    prime = make_field(p)
    forms = list(itertools.product(range(p), repeat=3))
    classes = [_fiber_class(prime, a, b, c) for a, b, c in forms]
    for e in (1, 2, 3):
        field = make_field(p, e)

        def lifted(counts):
            alpha, beta, gamma = _lift_sum(counts, p)
            return alpha + beta * (-1) ** e + gamma * field.q

        for (a, b, c), (m, line) in zip(forms, classes):
            assert field.q * lifted([m]) + 1 == fiber_conic(field, a, b, c)[0], ((a, b, c), e)
            assert lifted([line]) == _line_count(field, a, b), ((a, b, c), e)
        assert lifted([m for m, _ in classes]) == sum(
            (fiber_conic(field, *form)[0] - 1) // field.q for form in forms), e
        assert lifted([line for _, line in classes]) == sum(
            _line_count(field, a, b) for a, b, _ in forms), e


# L0's a = z, b = -(z^2 + 1) and c = z^3 - 2z; a and b meet both identities
# of the descent, since b^2 - 4a^2 = (z^2 - 1)^2 and bz = a(z + 1)^2 over F_2
_L0_A, _L0_B, _L0_C = [0, 1], [-1, 0, -1], [0, -2, 0, 1]


def test_locus_with_a_root_outside_f_p2_is_refused():
    # c = z^3 - z - 1 is irreducible mod 3, so its roots lie in F_27 only;
    # mod 5 it has the root 2, and the same model is counted
    model = conic_bundle("c=z^3-z-1", _L0_A, _L0_B, [-1, -1, 0, 1])
    with pytest.raises(ValueError, match="roots outside F_3"):
        fiberwise_totals(model, make_field(3))
    field = make_field(5)
    assert fiberwise_totals(model, field).biprojective == brute_totals(model, field).biprojective


def test_descent_runs_on_unregistered_models():
    # the generated models, against brute force in all three spaces
    fields = [make_field(p, n) for p, n in prime_powers_upto(27)]
    models = generated_models()
    assert (len(models), len(fields)) == (39, 15)
    for model in models:
        for field in fields:
            totals = fiberwise_totals(model, field)
            assert totals.surface == model.id
            assert brute_totals(model, field) == totals


# models beyond generated_models(), each with a fiber class those lack: b^2 - 4a^2
# is k times a square with k = -12 or -64, so a smooth fiber's line u = 0 carries
# 1 + chi(k) = 0 points at some p, and the fiber over (1 : 0) is smooth or has
# m = 0; or a, b and c share a factor, z - 2, z^2 + 1 or 2z + 1, so a whole plane
# lies over a rational point, over a closed point of degree 2, or over (1 : 0) at
# p = 2.  b is even in the first two, so every fiber in characteristic 2 is a
# double line: the descent refuses p = 2 there, as it refuses the p dividing k.
_BEYOND = [
    (conic_bundle("k=-12", [2, 0, 2], [2, 0, 2], [-3, 0, 1]), (2, 3)),
    (conic_bundle("k=-64", [2, 0, 2], [4, 0, -4], [1, 1, 1]), (2,)),
    (conic_bundle("plane over z=2", *(_zmul([-2, 1], f) for f in (_L0_A, _L0_B, [-3, 0, 1]))), ()),
    (conic_bundle("plane over z^2+1", *(_zmul([1, 0, 1], f) for f in (_L0_A, _L0_B, [-3, 1]))), ()),
    (conic_bundle("plane over (1:0) at 2", *(_zmul([1, 2], f) for f in (_L0_A, _L0_B, _L0_C))), ()),
]


@pytest.mark.parametrize("model, refused", _BEYOND, ids=[model.id for model, _ in _BEYOND])
def test_descent_beyond_the_generated_models(model, refused):
    # against brute force, and the determinant at every base, at each q <= 27
    for p, n in prime_powers_upto(27):
        field = make_field(p, n)
        if p in refused:
            for read in (fiberwise_totals, degenerate_fibers):
                with pytest.raises(FieldError, match=f"mod {p}$"):
                    read(model, field)
            continue
        assert fiberwise_totals(model, field) == brute_totals(model, field), (p, n)
        assert degenerate_fibers(model, field) == _determinant_zeros(model, field), (p, n)


@pytest.mark.parametrize("model, reason", [
    pytest.param(model_with_points_over_w0(), "fiber forms outside the supported shape",
                 id="shape"),
    # b^2 - 4a^2 = z^2(z^2 - 4)
    pytest.param(conic_bundle("b=-z^2", [0, 1], [0, 0, -1], _L0_C),
                 "b^2 - 4a^2 is not a constant times a square", id="square"),
    # b^2 - 4a^2 = (z^2 - 1)^2, but b*z != a*(z + 1)^2 = 0 over F_2
    pytest.param(conic_bundle("a=0", [], [-1, 0, 1], _L0_C),
                 "a/b is not h + h^2 with h = 1/(z + 1) over F_2(z)", id="char2"),
])
def test_descent_refuses_models_outside_its_identities(model, reason):
    with pytest.raises(ValueError, match=re.escape(f"{model.id}: {reason}")):
        fiberwise_totals(model, make_field(3))


@st.composite
def _split_cases(draw):
    # products of factors of degree <= 3, as in
    # test_low_degree_factors_match_enumeration, some with their leading
    # coefficient scaled by p, times linear factors v*z - u, some with p | v
    # so that the rational root u/v has no image mod p
    p = draw(st.sampled_from([p for p in range(2, 24) if is_prime(p)]))
    factors = draw(st.lists(st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
                                      st.booleans()), min_size=1, max_size=3))
    linear = draw(st.lists(st.tuples(st.integers(-9, 9), st.one_of(
        st.integers(1, 4), st.integers(1, 2).map(lambda k: k * p))), max_size=3))
    g = [1]
    for f in [f[:-1] + [f[-1] * p] if scaled else f for f, scaled in factors]:
        g = _zmul(g, f)
    for u, v in linear:
        g = _zmul(g, [-u, v])
    return p, g


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_split_cases())
# two factors over Q that meet mod p: one quadratic [3, 0, 1], and the roots [3, 4]
@example((5, _zmul([-2, 0, 1], [3, 0, 1])))
@example((7, _zmul([-3, 1], [-2, 0, 1])))
@example((5, [1, 1, 5]))  # p | a: the one root 4
@example((5, [-1, -1, 1]))  # p | disc = 5: the double root 3
# at p = 2: the irreducible z^2 + z + 1, met by two factors over Q
@example((2, _zmul([-1, -1, 1], [1, 1, 3])))
@example((2, _zmul([1, 0, 1], [-2, 0, 1])))  # the double roots 1 and 0
@example((2, [1, 1, 2]))  # 2 | a: the one root 1
@example((2, [1, 0, 2]))  # 2 | a and s: a unit, with neither root nor factor
def test_split_locus_matches_low_degree_factors(case):
    p, g = case
    try:
        roots, quadratics = low_degree_factors(g, p)
    except FieldError:
        with pytest.raises(FieldError):
            _locus_factors(g, p)
        return
    assert _locus_factors(g, p) == (roots, sorted(quadratics))


def residue_counts(model, field, z):
    """(points, points on u = 0) of the fiber over a closed point in its residue
    field, where z is the class of z: a root in F_p, or p in F_p[z]/(f)."""
    m, line = _fiber_class(field, *_zw_values(field, _fiber_forms(model), z, 1))
    return field.q * m + 1, line


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_closed_points_classified_in_their_residue_fields(sid):
    # the counts of a closed point, taken once in F_p[z]/(f), equal those of
    # the fiber over each of its roots in make_field(p, 2)
    model, quadratic_points = surface(sid), 0
    _, odd_locus, char2_locus = _bundle_loci(model)
    for p in (p for p in range(2, 200) if is_prime(p)):
        roots, quadratics = fibercount._closed_points(model, p)
        expected_roots, expected_quadratics = low_degree_factors(
            char2_locus if p == 2 else odd_locus, p)
        assert roots == expected_roots
        assert quadratics == sorted(expected_quadratics)
        # the class of z in F_p[z]/(f) encodes as p
        for field, points, counts in [
                (make_field(p), [[z] for z in roots],
                 [residue_counts(model, make_field(p), z) for z in roots]),
                (make_field(p, 2), [split_roots(f, make_field(p, 2)) for f in quadratics],
                 [residue_counts(model, Field(p, 2, modulus=f), p) for f in quadratics])]:
            for zs, (count, line) in zip(points, counts, strict=True):
                for z in zs:
                    a, b, c = fiber_form(model, (z, 1), field)
                    assert fiber_conic(field, a, b, c)[0] == count, (p, z)
                    assert _line_count(field, a, b) == line, (p, z)
        quadratic_points += len(quadratics)
    assert quadratic_points > 0 or sid == "L2"


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_prime_descent_factors_the_locus_as_low_degree_factors(sid):
    # the quadratic factors over Q split by their characters, against
    # Cantor-Zassenhaus on the whole locus
    model = surface(sid)
    _, odd_locus, char2_locus = _bundle_loci(model)
    for p in [p for p in range(2, 2000) if is_prime(p)] + _BIG_PRIMES:
        roots, quadratics = fibercount._closed_points(model, p)
        expected_roots, expected_quadratics = low_degree_factors(
            char2_locus if p == 2 else odd_locus, p)
        assert (roots, quadratics) == (expected_roots, sorted(expected_quadratics)), p


def test_descent_does_not_use_the_closed_form_characters(monkeypatch, fresh_descent):
    # the descent is checked against the global products, so it reads
    # neither them nor their Euler factors and characters
    cases = [(sid, p) for sid in ("L0", "L1", "L2") for p in (3, 5, 7, 31, 999983)]
    expected = [[count_formula(sid, p, n) for n in (1, 2)] for sid, p in cases]

    def refuse(*args):
        raise AssertionError("the descent read a global product")

    monkeypatch.setattr(globalzeta, "euler_factor", refuse)
    monkeypatch.setattr(globalzeta, "global_expression", refuse)
    assert [descent_series(sid, p, 2) for sid, p in cases] == expected


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_descent_refuses_even_degree_beyond_f_p2(sid):
    # L2's locus has no closed point of degree 2, so no residue field would
    # raise; F_{p^2} is still beyond 2^63 and even n needs it
    p = 2**61 - 1
    with pytest.raises(FieldError):
        descent_series(sid, p, 2)
    assert descent_series(sid, p, 1) == [count_formula(sid, p, 1)]
    assert fiberwise_totals(sid, make_field(p)) == count_formula(sid, p, 1)


def test_descent_series_equals_paper_table():
    # one read of the descent for n = 1..14, as verify and zeta take it,
    # against the counts of the paper's per-prime table in all three spaces
    for sid in ("L0", "L1", "L2"):
        for p in [p for p in range(2, 500) if is_prime(p)] + [2**31 - 1]:
            series = descent_series(sid, p, 14)
            for space in ("biprojective", "affine", "nonaffine"):
                assert ([t.count(space) for t in series]
                        == paper_local_zeta(sid, p, space).counts(14)), (sid, p, space)
    # c = z^3 - z - 1 has roots outside F_{p^2} at some p: the series is
    # refused there, and elsewhere it starts with the brute-force counts
    model, refused = conic_bundle("c=z^3-z-1", _L0_A, _L0_B, [-1, -1, 0, 1]), 0
    for p in [p for p in range(2, 32) if is_prime(p)]:
        try:
            series = descent_series(model, p, 14)
        except ValueError:
            refused += 1
            continue
        fields = [make_field(p, n) for n in (1, 2) if p**n <= 27]
        assert series[:len(fields)] == [brute_totals(model, f) for f in fields], p
    assert 0 < refused < 11


@st.composite
def _rational_split_cases(draw):
    # c times distinct factors v*z - u and az^2 + sz + t, primitive, the
    # quadratics irreducible over Q, each to the power 1 or 2
    roots = draw(st.sets(st.tuples(st.integers(-4, 4), st.integers(1, 3))
                         .filter(lambda r: math.gcd(*r) == 1), max_size=3))
    quadratics = draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
                              .filter(lambda f: math.gcd(*f) == 1 and not _is_square(
                                  f[1] ** 2 - 4 * f[0] * f[2])), max_size=2))
    c = draw(st.sampled_from([1, -1, 2, -3, 6]))
    f = [c]
    for factor in [[-u, v] for u, v in roots] + [list(q) for q in quadratics]:
        for _ in range(draw(st.integers(1, 2))):
            f = _zmul(f, factor)
    return f, roots, quadratics, c


def _is_square(m):
    return m >= 0 and math.isqrt(m) ** 2 == m


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_rational_split_cases())
def test_rational_split_finds_every_factor(case):
    # what the split peels off over Q: every rational root and quadratic
    # factor, once each, and the constant c left
    f, roots, quadratics, c = case
    got_roots, got_quadratics, rest = _rational_split(tuple(f))
    assert sorted(got_roots) == sorted(roots) and sorted(got_quadratics) == sorted(quadratics)
    assert rest == (c,)


def _square_root_by_fractions(d):
    # the monic square root in Q[z] by Fractions, scaled to integers
    if (len(d) - 1) % 2:
        return None
    e = (len(d) - 1) // 2
    t = [Fraction(x, d[-1]) for x in d]
    s = [Fraction(0)] * e + [Fraction(1)]
    for j in range(1, e + 1):
        s[e - j] = (t[2 * e - j] - sum(s[e - i] * s[e - j + i] for i in range(1, j))) / 2
    scale = math.lcm(*(x.denominator for x in s))
    return [int(x * scale) for x in s] if _zmul(s, s) == t else None


@st.composite
def _square_root_cases(draw):
    # k * s^2 for integer s, k, sometimes with one coefficient moved off it
    s = draw(st.lists(st.integers(-9, 9), max_size=4)) + [draw(st.sampled_from([1, -1, 2, -3, 4, 6]))]
    k = draw(st.sampled_from([1, -1, 2, -3, 4, 9, -12, 25]))
    d = [k * x for x in _zmul(s, s)]
    if draw(st.booleans()):
        d[draw(st.integers(0, len(d) - 1))] += draw(st.sampled_from([1, -1, 2]))
    while d and d[-1] == 0:
        d.pop()
    return d


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(_square_root_cases(), st.lists(st.integers(-20, 20), min_size=1, max_size=7)
                 .filter(lambda d: d[-1] != 0)))
@example([4, 4, 1])  # (2z + 1)^2: s = z + 1/2 scales to 2z + 1
@example([-3, 0, 2])  # lead 2, not a constant times a square
def test_square_root_matches_the_rational_recurrence(d):
    assert _square_root(d) == _square_root_by_fractions(d)


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_three_way_agreement_small(sid):
    for p, n in prime_powers_upto(32):
        field = make_field(p, n)
        totals = fiberwise_totals(sid, field)
        assert brute_totals(sid, field) == totals == count_formula(sid, p, n)
