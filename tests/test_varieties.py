"""Surface models, brute-force counts, and the singular-locus checker."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charzeta import (SURFACE_IDS, BiprojectivePoint, FieldError, brute_totals, count_formula,
                      fiberwise_totals, make_field, singular_locus, surface, varieties)
from charzeta.intpoly import IntPoly
from charzeta.surfaces import _as_model, _zw_values
from charzeta.varieties import (MAX_AFFINE_Q, _affine_plane, _check_packed_headroom,
                                _check_prime_headroom, _fiber_counts, _form_weights, _line_plane,
                                _monomial_grids, _zero_masks)
from conftest import (_p2_rep_arrays, _scalar_tables, biprojective_zero_reps, chart_verdicts,
                      eval_scalar, expected_singular_points, generated_models,
                      model_with_points_over_w0, p1_reps, p2_reps, prime_powers_upto, set_one,
                      singular_points_by_charts, zero_points_scalar)


def test_surface_ids():
    for sid in ("L0", "L1", "L2"):
        assert surface(sid).id == sid
    with pytest.raises(ValueError):
        surface("L3")


def test_affine_polynomials_transcribed():
    f0 = surface("L0").f
    assert f0.terms == {(0, 0, 3): 1, (1, 1, 2): -1, (2, 0, 1): 1,
                        (0, 2, 1): 1, (0, 0, 1): -2, (1, 1, 0): -1}
    f1 = surface("L1").f
    assert f1.terms[(0, 0, 4)] == 1 and f1.terms[(0, 0, 0)] == 1
    assert f1.terms[(0, 0, 2)] == -3
    f2 = surface("L2").f
    assert f2.terms[(0, 0, 1)] == -1


def test_dehomogenisation_identity():
    # F(x, y, 1, z, 1) = f(x, y, z) exactly: F is built from f so that it holds
    for sid in ("L0", "L1", "L2"):
        m = surface(sid)
        assert set_one(set_one(m.F, "u"), "w") == m.f


def test_bidegrees():
    assert surface("L0").deg_zw == 3
    assert surface("L1").deg_zw == 4
    assert surface("L2").deg_zw == 3


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_bihomogeneity_random_scalars(sid, p, n):
    m = surface(sid)
    field = make_field(p, n)
    rng = random.Random(500 + p + n)
    d = m.deg_zw
    for _ in range(25):
        pt = {v: rng.randrange(field.q) for v in ("x", "y", "u", "z", "w")}
        lam = rng.randrange(1, field.q)
        mu = rng.randrange(1, field.q)
        scaled = {"x": field.mul(lam, pt["x"]), "y": field.mul(lam, pt["y"]),
                  "u": field.mul(lam, pt["u"]), "z": field.mul(mu, pt["z"]),
                  "w": field.mul(mu, pt["w"])}
        lhs = eval_scalar(m.F, field, [scaled[v] for v in m.F.vars])
        factor = field.mul(field.pow_(lam, 2), field.pow_(mu, d))
        rhs = field.mul(factor, eval_scalar(m.F, field, [pt[v] for v in m.F.vars]))
        assert lhs == rhs


def test_affine_brute_examples():
    assert brute_totals("L0", make_field(2)).affine == 5
    assert brute_totals("L1", make_field(2)).affine == 2
    assert brute_totals("L2", make_field(3)).affine == 11


def test_affine_f1_f2_solutions_over_f2():
    # the two affine points of the quartic over F_2
    f = surface("L1").f
    sols = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)
            if f.eval_int({"x": x, "y": y, "z": z}) % 2 == 0]
    assert sols == [(0, 1, 1), (1, 0, 1)]


def test_biprojective_brute_examples():
    assert brute_totals("L0", make_field(7)).biprojective == 99
    assert brute_totals("L0", make_field(3)).biprojective == 25
    assert brute_totals("L1", make_field(2)).biprojective == 9


def test_nonaffine_brute_examples():
    assert brute_totals("L0", make_field(3)).nonaffine == 8
    assert brute_totals("L0", make_field(2)).nonaffine == 6
    assert brute_totals("L1", make_field(3)).nonaffine == 10


@pytest.mark.parametrize("sid", ["L0", "L1", "L2",
                                 pytest.param(model_with_points_over_w0(), id="xuz3")])
def test_affine_plus_nonaffine_equals_biprojective(sid):
    # brute_totals sums its biprojective count from the other two, so this
    # guards the record rather than the kernel
    for p, n in prime_powers_upto(16):
        totals = brute_totals(sid, make_field(p, n))
        assert totals.affine + totals.nonaffine == totals.biprojective, (sid, p, n)


def test_brute_size_guards():
    # counts stop at MAX_AFFINE_Q in every space
    with pytest.raises(FieldError):
        brute_totals("L0", make_field(2053))


@pytest.mark.parametrize("p,n", [(131, 1), (3, 5), (2, 8), (2, 11), (1000003, 1), (999983, 2)])
def test_singular_locus_beyond_the_old_cap(p, n):
    # the degenerate fibers reach every field of the descent; whole singular
    # lines, which occur in characteristic 2, are listed up to q = 2^11
    field = make_field(p, n)
    for sid in SURFACE_IDS:
        assert singular_locus(sid, field) == expected_singular_points(sid, field), sid


@pytest.mark.parametrize("sid,p,expected_size", [
    ("L0", 3, 4), ("L0", 7, 4), ("L2", 3, 4), ("L2", 7, 4),
    ("L1", 3, 6), ("L1", 7, 6), ("L1", 11, 6), ("L1", 5, 8),
])
def test_singular_locus_odd_char(sid, p, expected_size):
    field = make_field(p)
    got = singular_locus(sid, field)
    want = expected_singular_points(sid, field)
    assert got == want
    assert len(got) == expected_size


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_singular_locus_char2_families(sid, n):
    field = make_field(2, n)
    assert singular_locus(sid, field) == expected_singular_points(sid, field)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.sampled_from(["L0", "L1", "L2", model_with_points_over_w0()]),
       st.sampled_from(prime_powers_upto(27)))
@example(model_with_points_over_w0(), (2, 2))
def test_brute_kernel_matches_scalar_enumeration(sid, pn):
    # prime fields, characteristic 2 and odd extension fields up to q = 27;
    # only the last model has points over (1 : 0) in the chart u = 1
    field = make_field(*pn)
    m = _as_model(sid)
    q = field.q
    totals = brute_totals(sid, field)
    affine = zero_points_scalar(m.f, field, [(x, y, z) for x in range(q)
                                             for y in range(q) for z in range(q)])
    assert totals.affine == len(affine)
    reps = [xyu + zw for xyu in p2_reps(field) for zw in p1_reps(field)]
    biproj = zero_points_scalar(m.F, field, reps)
    assert totals.biprojective == len(biproj)
    assert sorted(biprojective_zero_reps(sid, field)) == sorted(biproj)
    nonaffine = zero_points_scalar(m.F, field, [r for r in reps if r[2] == 0 or r[4] == 0])
    assert totals.nonaffine == len(nonaffine)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.sampled_from(["L0", "L1", "L2"]), st.sampled_from(prime_powers_upto(27)))
@example("L1", (3, 3))
@example("L0", (2, 4))
@example("L2", (5, 2))
def test_kernel_zero_sets_match_scalar_enumeration(sid, pn):
    # F over all of P^2 x P^1, as one flat plane
    field = make_field(*pn)
    m = surface(sid)
    plane = _p2_rep_arrays(field.p, field.n)
    got = [tuple(int(c[i]) for c in plane) + zw
           for zw, mask in _zero_masks(m._form, field, plane, p1_reps(field))
           for i in np.flatnonzero(mask)]
    reps = [xyu + zw for xyu in p2_reps(field) for zw in p1_reps(field)]
    assert sorted(got) == sorted(zero_points_scalar(m.F, field, reps))


def test_monomial_grids_match_scalar_products():
    # residues over F_p, discrete logs with the zero sentinel 2(q - 1) over
    # F_{p^n}; u is a broadcasting length-1 array, once zero and once not
    monos = [e for e in np.ndindex(3, 3, 3) if sum(e) <= 2]
    for p, n in [(5, 1), (3, 2), (2, 3), (7, 2)]:
        field = make_field(p, n)
        q = field.q
        if n > 1:  # the exp table lists the powers of a generator, by Field.mul
            _, mul, _ = _scalar_tables(p, n)
            exp = field.exp_log_tables()[0].tolist()
            assert sorted(exp) == list(range(1, q))
            assert all(mul[a][exp[1]] == b for a, b in zip(exp, exp[1:]))
        x, y = np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
        for u in (0, q - 1):
            grids = _monomial_grids(field, (x, y, np.array([u])), monos)
            for mono, g in zip(monos, grids):
                g = np.broadcast_to(g, x.shape).tolist()
                if n > 1:
                    assert all(0 <= v < q - 1 or v == 2 * (q - 1) for v in g)
                    g = [0 if v == 2 * (q - 1) else exp[v] for v in g]
                poly = IntPoly(("x", "y", "u"), {mono: 1})
                want = [eval_scalar(poly, field, (a, b, u)) for a, b in zip(x.tolist(), y.tolist())]
                assert g == want, (p, n, mono, u)


def _weights_match_scalar(field, bases):
    for sid in SURFACE_IDS:
        form = surface(sid)._form
        _, lists, deg = form
        want = [_zw_values(field, lists, deg, z, w) for z, w in bases]
        assert _form_weights(field, form, bases) == want, (sid, field)


def test_form_weights_match_scalar_weights():
    # F of every model: at every base point of each field with
    # q <= 128, and at the cap-edge fields at (1 : 0) and a seeded sample of
    # bases (z : 1) that includes z = 0, 1 and q - 1
    for p, n in prime_powers_upto(128):
        _weights_match_scalar(make_field(p, n), p1_reps(make_field(p, n)))
    rng = random.Random(2039)
    for p, n in [(2, 11), (3, 6), (43, 2), (2039, 1)]:
        q = p**n
        zs = sorted({0, 1, q - 1, *rng.sample(range(q), 61)})
        _weights_match_scalar(make_field(p, n), [(z, 1) for z in zs] + [(1, 0)])


def test_nonaffine_brute_never_builds_p2(monkeypatch):
    # near q = 2048 the P^2 arrays would take about 100 MB; the counts in
    # every space enumerate the chart (x, y, 1) and the line u = 0 instead
    planes, zero_masks = [], varieties._zero_masks

    def recorded(form, field, plane, bases):
        planes.append((field.q, np.broadcast(*plane).size))
        return zero_masks(form, field, plane, bases)

    monkeypatch.setattr(varieties, "_zero_masks", recorded)
    totals = brute_totals("L0", make_field(3))
    assert (totals.biprojective, totals.affine, totals.nonaffine) == (25, 17, 8)
    assert brute_totals("L1", make_field(2, 3)) == count_formula("L1", 2, 3)
    assert planes == [(3, 3 * 3), (3, 3 + 1), (8, 8 * 8), (8, 8 + 1)]


def test_affine_brute_holds_little_beyond_its_grids():
    # at q = 509 the count needs three int32 grids of q^2 entries (x^2, y^2,
    # xy; u^2 is one entry) and the mask, 3.8 MiB; int64 coordinate arrays
    # of q^2 entries and int64 grid temporaries would take 11.9 MiB
    field = make_field(509)
    tracemalloc.start()
    try:
        count = brute_totals("L1", field).affine
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == fiberwise_totals("L1", field).affine
    assert peak < 11.9 * 2**20 / 2


def test_prime_accumulation_refuses_int32_overflow():
    _check_prime_headroom(6, MAX_AFFINE_Q)
    _check_prime_headroom(2, 32768)            # 2 * 32767^2 < 2^31
    with pytest.raises(OverflowError):
        _check_prime_headroom(2, 32769)        # 2 * 32768^2 = 2^31
    with pytest.raises(OverflowError):
        _check_prime_headroom(5, 2**31 + 11)


def test_packed_digits_refuse_carries_and_overflow():
    _check_packed_headroom(7, 3, 2, 4)         # 7 * 2 < 2^4
    _check_packed_headroom(6, 43, 7, 9)        # 6 * 42 < 2^9, 7 * 9 = 63 bits
    with pytest.raises(OverflowError):
        _check_packed_headroom(8, 3, 2, 4)     # 8 * 2 = 2^4 carries into the next digit
    with pytest.raises(OverflowError):
        _check_packed_headroom(6, 43, 8, 8)    # 8 * 8 = 64 bits


def test_packed_digits_fit_every_odd_extension_field():
    # the kernel packs s = bit_length(terms * (p - 1)) bits per digit, with
    # terms the monomials of F
    for p, n in prime_powers_upto(MAX_AFFINE_Q):
        if p > 2 and n > 1:
            for sid in SURFACE_IDS:
                terms = len(surface(sid)._form[0])
                _check_packed_headroom(terms, p, n, (terms * (p - 1)).bit_length())
    for p, n in [(43, 2), (3, 6)]:  # the widest spacer and the most digits
        # the non-affine part of brute_totals' passes: the chart over (1 : 0)
        # and the line u = 0; its affine pass would take minutes at q = 1849
        field, q = make_field(p, n), p**n
        bases = [(z, 1) for z in range(q)] + [(1, 0)]
        for sid in SURFACE_IDS:
            model = surface(sid)
            nonaffine = (_fiber_counts(model, field, _affine_plane(q), [(1, 0)])[0]
                         + sum(_fiber_counts(model, field, _line_plane(q), bases)))
            assert nonaffine == fiberwise_totals(sid, field).nonaffine


def test_strips_of_any_size_give_the_same_zeros(monkeypatch):
    # one strip per fiber at these q; strips of 7 points end on a short
    # strip in every fiber, over all of P^2 and in both passes of
    # brute_totals, over the chart and the line u = 0
    fields = [make_field(p, n) for p, n in [(7, 1), (2, 3), (3, 2)]]

    def zeros():
        return [(sorted(biprojective_zero_reps(sid, field)), brute_totals(sid, field))
                for field in fields for sid in SURFACE_IDS]

    want = zeros()
    monkeypatch.setattr("charzeta.varieties._BLOCK", 7)
    assert zeros() == want


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_singular_locus_matches_chart_oracle(sid):
    # the singular sets of the degenerate fibers against the Jacobian
    # criterion at every zero of F in P^2 x P^1, in each containing affine
    # chart; those charts must also agree with each other
    for p, n in prime_powers_upto(32):
        field = make_field(p, n)
        assert singular_locus(sid, field) == singular_points_by_charts(sid, field), (sid, p, n)


def test_singular_locus_matches_chart_oracle_on_generated_models():
    # every third of the models the descent is tested on, each point in the
    # first chart that contains it: all 39 take about 4 s
    fields = [make_field(p, n) for p, n in prime_powers_upto(27)]
    for model in generated_models()[::3]:
        for field in fields:
            want = singular_points_by_charts(model, field, 1)
            assert singular_locus(model, field) == want, (model, field)


def test_singular_locus_refuses_fibers_outside_the_bundle_shape():
    # L0 + xuz^3 has xu terms in its fiber forms, which the descent refuses,
    # and the singular locus reads its degenerate fibers
    for p, n in prime_powers_upto(16):
        with pytest.raises(ValueError, match="fiber forms outside the supported shape"):
            singular_locus(model_with_points_over_w0(), make_field(p, n))


def test_singular_points_lie_on_surface():
    field = make_field(5)
    m = surface("L1")
    for pt in singular_locus(m, field):
        assert eval_scalar(m.F, field, pt.xyu + pt.zw) == 0


def test_smooth_point_is_not_singular():
    field = make_field(7)
    # (0:0:1, 0:1) lies on L0 but is smooth when p is odd
    rep = (0, 0, 1, 0, 1)
    assert rep in biprojective_zero_reps("L0", field)
    flags = chart_verdicts("L0", field, rep)
    assert flags and not any(flags)
    assert BiprojectivePoint((0, 0, 1), (0, 1)) not in singular_locus("L0", field)
