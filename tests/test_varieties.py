"""Surface models, brute-force counts, and the singular-locus checker."""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charzeta
from charzeta import (SURFACE_IDS, BiprojectivePoint, FieldError, brute_totals, count_formula,
                      fiberwise_totals, make_field, singular_locus, surface, varieties)
from charzeta.fibercount import _zw_values
from charzeta.surfaces import _as_model
from charzeta.varieties import _Y_FORMS, MAX_AFFINE_Q, _Logs, _solutions
from conftest import (_scalar_tables, bihomogeneous, biprojective_zero_reps, chart_verdicts,
                      eval_int, eval_scalar, expected_singular_points, generated_models,
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
    # F(x, y, 1, z, 1) = f(x, y, z) exactly: the tests' F is built from f so
    # that it holds
    for sid in ("L0", "L1", "L2"):
        m = surface(sid)
        f = set_one(set_one(bihomogeneous(m), "u"), "w")
        assert (f.vars, f.terms) == (m.f.vars, m.f.terms)


def test_bidegrees():
    # every term of the tests' F has degree 2 in (x, y, u) and deg_zw in (z, w)
    for sid, d in (("L0", 3), ("L1", 4), ("L2", 3)):
        assert surface(sid).deg_zw == d
        assert {(sum(e[:3]), sum(e[3:])) for e in bihomogeneous(sid).terms} == {(2, d)}


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_bihomogeneity_random_scalars(sid, p, n):
    m = surface(sid)
    F = bihomogeneous(m)
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
        lhs = eval_scalar(F, field, [scaled[v] for v in F.vars])
        factor = field.mul(field.pow_(lam, 2), field.pow_(mu, d))
        rhs = field.mul(factor, eval_scalar(F, field, [pt[v] for v in F.vars]))
        assert lhs == rhs


def test_affine_brute_examples():
    assert brute_totals("L0", make_field(2)).affine == 5
    assert brute_totals("L1", make_field(2)).affine == 2
    assert brute_totals("L2", make_field(3)).affine == 11


def test_affine_f1_f2_solutions_over_f2():
    # the two affine points of the quartic over F_2
    f = surface("L1").f
    sols = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)
            if eval_int(f, {"x": x, "y": y, "z": z}) % 2 == 0]
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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(["L0", "L1", "L2", model_with_points_over_w0(), *generated_models()]),
       st.sampled_from(prime_powers_upto(27)))
@example(model_with_points_over_w0(), (2, 2))
@example(generated_models()[0], (3, 3))
@example(generated_models()[-1], (2, 4))
def test_brute_kernel_matches_scalar_enumeration(sid, pn):
    # prime fields, characteristic 2 and odd extension fields up to q = 27,
    # for the three surfaces and the generated conic bundles; only
    # L0 + xuz^3 has points over (1 : 0) in the chart u = 1.  The
    # biprojective count is compared with the enumeration directly, not
    # only as the sum of the other two
    field = make_field(*pn)
    m = _as_model(sid)
    q = field.q
    totals = brute_totals(sid, field)
    affine = zero_points_scalar(m.f, field, [(x, y, z) for x in range(q)
                                             for y in range(q) for z in range(q)])
    assert totals.affine == len(affine)
    biproj = biprojective_zero_reps(m, field)
    assert totals.biprojective == len(biproj)
    assert totals.nonaffine == len([r for r in biproj if r[2] == 0 or r[4] == 0])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_solutions_match_scalar_enumeration(p, n):
    # the rule of each branch (a = 0, odd p, p = 2) against the y in F_q
    # with a y^2 + b y + c = 0, at every (a, b, c), from the scalar tables
    field = make_field(p, n)
    F = _Logs(field)
    add, mul, _ = _scalar_tables(p, n)
    q = field.q
    for a in range(q):
        for b in range(q):
            for c in range(q):
                want = sum(add[add[mul[a][mul[y][y]]][mul[b][y]]][c] == 0 for y in range(q))
                r = [F.log[e] for e in (a, b, c)]
                assert _solutions(F, r[0], (r[1],), (r[2],), [None]) == want, (a, b, c)
    # and summed over every x with B and C of degree 1 and 2 in x
    rng = random.Random(q)
    for _ in range(30):
        a, b0, b1, c0, c1, c2 = (rng.choice([0, 1, rng.randrange(q)]) for _ in range(6))
        want = sum(add[add[mul[a][mul[y][y]]][mul[add[b0][mul[b1][x]]][y]]]
                   [add[add[c0][mul[c1][x]]][mul[c2][mul[x][x]]]] == 0
                   for x in range(q) for y in range(q))
        r = [F.log[e] for e in (a, b0, b1, c0, c1, c2)]
        assert _solutions(F, r[0], tuple(r[1:3]), tuple(r[3:]), F.elements) == want


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (101, 1),
                                 (2, 3), (3, 2), (2, 4), (3, 3), (7, 2)])
def test_log_tables_match_scalar_arithmetic(p, n):
    # _Logs's log maps the nonzero encodings one to one onto [0, q - 1), and
    # its inverse exp lists the powers of a generator by Field.mul; the Zech
    # logs, the trace table (p = 2), the chi table (odd p) and the sums and
    # products on logs agree with Field.add, Field.mul, Field.trace and
    # Field.quadratic_character
    field = make_field(p, n)
    q = field.q
    F = _Logs(field)
    log = F.log
    assert log[0] is None and sorted(log[1:]) == list(range(q - 1))
    exp = _exp_table(F)
    g = exp[1] if q > 2 else 1
    _, mul, _ = _scalar_tables(p, n)
    assert all(mul[a][g] == b for a, b in zip(exp, exp[1:]))
    for k, e in enumerate(exp):
        one_plus = field.add(1, e)
        assert F.zech[k] == (log[one_plus] if one_plus else None)
        if p == 2:
            assert F.trace[k] == field.trace(e)
        else:
            assert F.chi[k] == field.quadratic_character(e)
    if p > 2:
        assert F.chi[None] == field.quadratic_character(0) == 0
    for a in range(q):
        for b in range(q):
            assert F.add(log[a], log[b]) == log[field.add(a, b)]
            assert F.mul(log[a], log[b]) == log[field.mul(a, b)]


def _exp_table(F):
    """exp[k], the encoding of g^k, from the inverse of _Logs's log table."""
    return sorted(range(1, F.q), key=F.log.__getitem__)


def _form_values_match_scalar(field, zs):
    F = _Logs(field)
    exp = _exp_table(F)
    for sid in SURFACE_IDS:
        m = surface(sid)
        d = m.deg_zw
        for i, j in _Y_FORMS:
            coeffs = [m.f.terms.get((i, j, k), 0) for k in range(d + 1)]
            got = F.values([F.const(c) for c in coeffs], [F.log[z] for z in zs])
            got = [0 if v is None else exp[v] for v in got]
            assert got == [_zw_values(field, [coeffs], z, 1)[0] for z in zs], (sid, field)


def test_form_weights_match_scalar_weights():
    # the weights of the base points (z : 1), the values there of the forms
    # A, b0, b1, c0, c1 and c2 of every surface by Horner's rule on logs,
    # against fibercount._zw_values: at every z of each field with
    # q <= 128, and at the cap-edge fields at a seeded sample of z that
    # includes 0, 1 and q - 1
    for p, n in prime_powers_upto(128):
        _form_values_match_scalar(make_field(p, n), range(p**n))
    rng = random.Random(2039)
    for p, n in [(2, 11), (3, 6), (43, 2), (2039, 1)]:
        q = p**n
        _form_values_match_scalar(make_field(p, n), sorted({0, 1, q - 1, *rng.sample(range(q), 61)}))


def test_nonaffine_brute_never_builds_p2(monkeypatch):
    # the counts in every space sum the chart (x, y, 1) over each of the
    # q + 1 base points, q points x each, and then the line u = 0 over each,
    # one quadratic each: O(q^2) work over lists of O(q) entries
    calls, solutions = [], varieties._solutions

    def recorded(F, a, b, c, xs):
        calls.append(len(xs))
        return solutions(F, a, b, c, xs)

    monkeypatch.setattr(varieties, "_solutions", recorded)
    totals = brute_totals("L0", make_field(3))
    assert (totals.biprojective, totals.affine, totals.nonaffine) == (25, 17, 8)
    assert brute_totals("L1", make_field(2, 3)) == count_formula("L1", 2, 3)
    assert calls == [3] * 4 + [1] * 4 + [8] * 9 + [1] * 9


def test_brute_count_holds_linear_memory():
    # at q = 509 the count holds lists of O(q) entries, the forms' values at
    # every base and the values of one chart, about 0.13 MiB; one list of
    # q^2 entries would take 2 MiB
    field = make_field(509)
    tracemalloc.start()
    try:
        totals = brute_totals("L1", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == fiberwise_totals("L1", field)
    assert peak < 2**20 / 2


_PEAK_RSS = """
import json, resource
from charzeta import brute_totals, make_field
field = make_field(2, 11)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
totals = brute_totals("L0", field)
print(json.dumps([totals.biprojective, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_brute_count_at_the_cap_adds_little_to_peak_rss():
    # at q = 2^11 the count builds the exp, log, Zech and trace tables, of
    # 2048 entries each, and adds lists of that length, under 1 MiB with the
    # tables; one list of q^2 entries would take 32 MiB.  tracemalloc slows
    # this count 25-fold, so a fresh interpreter reads its own peak RSS
    # (KiB) instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(charzeta.__file__)))
    res = subprocess.run([sys.executable, "-c", _PEAK_RSS], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    biprojective, before, after = json.loads(res.stdout)
    assert biprojective == fiberwise_totals("L0", make_field(2, 11)).biprojective
    assert after - before < 4 * 1024


def test_brute_counts_at_the_widest_odd_extension_fields():
    # the most digits (3^6) and the widest digits (43^2) of an odd extension
    # field under the cap
    for sid in SURFACE_IDS:
        assert brute_totals(sid, make_field(3, 6)) == fiberwise_totals(sid, make_field(3, 6))
    assert brute_totals("L1", make_field(43, 2)) == fiberwise_totals("L1", make_field(43, 2))


def test_log_tables_cover_the_brute_force_cap():
    # the one cap, MAX_AFFINE_Q: _Logs at q = 2^11 holds complete tables,
    # and brute_totals refuses the first field above it
    assert MAX_AFFINE_Q == 2048
    F = _Logs(make_field(2, 11))
    assert F.log[0] is None and sorted(F.log[1:]) == list(range(2047))
    assert len(F.zech) == len(F.trace) == 2047
    with pytest.raises(FieldError):
        brute_totals("L0", make_field(2053))


def test_counts_leave_the_field_unchanged():
    # a Field holds p, n, q and the modulus and nothing more: a brute count,
    # a singular locus and a descent over it add or change no attribute
    for p, n in [(2, 3), (3, 2), (7, 1)]:
        field = make_field(p, n)
        before = dict(vars(field))
        assert set(before) == {"p", "n", "q", "modulus"}
        for sid in SURFACE_IDS:
            brute_totals(sid, field)
            singular_locus(sid, field)
            fiberwise_totals(sid, field)
        assert vars(field) == before, (p, n)


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
        assert eval_scalar(bihomogeneous(m), field, pt.xyu + pt.zw) == 0


def test_smooth_point_is_not_singular():
    field = make_field(7)
    # (0:0:1, 0:1) lies on L0 but is smooth when p is odd
    rep = (0, 0, 1, 0, 1)
    assert rep in biprojective_zero_reps("L0", field)
    flags = chart_verdicts("L0", field, rep)
    assert flags and not any(flags)
    assert BiprojectivePoint((0, 0, 1), (0, 1)) not in singular_locus("L0", field)
