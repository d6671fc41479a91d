"""The surface models: built from f alone, and checked against the link groups."""

import itertools
import math

import pytest

from charzeta.intpoly import IntPoly
from charzeta.surfaces import SurfaceModel, surface
from conftest import eval_int

# Each surface's link in Schubert normal form b(alpha, beta) (Riley,
# "Parabolic representations of knot groups, I", 1972): 5^2_1 = b(8, 3),
# 6^2_2 = b(10, 3) and 6^2_3 = b(12, 5).
LINKS = {"L0": (8, 3), "L1": (10, 3), "L2": (12, 5)}


def schubert_word(alpha, beta):
    """w = b^e_1 a^e_2 ... b^e_(alpha-1), e_i = (-1)^floor(i beta / alpha), as
    (letter, exponent) pairs; the link group is <a, b | aw = wa>."""
    return [("ba"[(i - 1) % 2], (-1) ** (i * beta // alpha)) for i in range(1, alpha)]


def sl2(p):
    """SL2(F_p) as (a, b, c, d) for [[a, b], [c, d]], and its Cayley table."""
    group = [m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1]
    index = {m: i for i, m in enumerate(group)}
    table = [[index[(a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p]
              for e, f, g, h in group] for a, b, c, d in group]
    return group, table


def trace_triples(alpha, beta, p):
    """(tr A, tr B, tr AB) mod p of every pair (A, B) in SL2(F_p)^2 with AW = WA,
    W the Schubert word of b(alpha, beta) in A and B."""
    group, table = sl2(p)
    one = group.index((1, 0, 0, 1))
    inverse = [row.index(one) for row in table]
    trace = [(m[0] + m[3]) % p for m in group]
    word = schubert_word(alpha, beta)
    triples = set()
    for a, b in itertools.product(range(len(group)), repeat=2):
        letters = {("a", 1): a, ("a", -1): inverse[a], ("b", 1): b, ("b", -1): inverse[b]}
        w = one
        for letter in word:
            w = table[w][letters[letter]]
        if table[a][w] == table[w][a]:
            triples.add((trace[a], trace[b], trace[table[a][b]]))
    return triples


def _markov(x, y, z, k):
    """x^2 + y^2 + z^2 - xyz - k, which is tr[A, B] + 2 - k at the traces
    (tr A, tr B, tr AB) of (A, B) in SL2."""
    return x * x + y * y + z * z - x * y * z - k


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
@pytest.mark.parametrize("p", [3, 5])
def test_surface_is_the_trace_image_of_the_link_group(sid, p):
    # every pair (A, B) with AW = WA has its traces on the surface, on the
    # reducible locus tr[A, B] = 2, or, for 6^2_3 only, on the second
    # component tr[A, B] = 1, which holds 32 triples off the surface at
    # p = 5 and none at p = 3; and every F_p-point of the surface is the
    # trace triple of such a pair
    f = surface(sid).f
    triples = trace_triples(*LINKS[sid], p)
    on_f = {t for t in triples if eval_int(f, dict(zip("xyz", t))) % p == 0}
    reducible = {t for t in triples if _markov(*t, 4) % p == 0}
    extra = {t for t in triples if _markov(*t, 3) % p == 0}
    assert triples == on_f | reducible | (extra if sid == "L2" else set())
    points = {t for t in itertools.product(range(p), repeat=3)
              if eval_int(f, dict(zip("xyz", t))) % p == 0}
    assert points <= triples
    if sid == "L2":
        assert len(extra - on_f) == {3: 0, 5: 32}[p]


# Polynomials over Z as dicts from exponent triples to nonzero
# coefficients: Laurent polynomials in t over Z[x, y] keyed (x, y, t), and
# polynomials in (x, y, z) keyed as IntPoly's terms.
def _plus(*terms):
    """The sum of c * poly over the (c, poly) pairs."""
    total = {}
    for c, poly in terms:
        for e, v in poly.items():
            total[e] = total.get(e, 0) + c * v
    return {e: v for e, v in total.items() if v}


def _times(a, b):
    return _plus(*((u, {tuple(i + j for i, j in zip(e, f)): v for f, v in b.items()})
                   for e, u in a.items()))


def _matmul(m, n):
    return [[_plus((1, _times(m[i][0], n[0][j])), (1, _times(m[i][1], n[1][j]))) for j in range(2)]
            for i in range(2)]


def _adjugate(m):
    """The inverse of a 2 x 2 matrix of determinant 1."""
    (a, b), (c, d) = m
    return [[d, _plus((-1, b))], [_plus((-1, c)), a]]


def _shift_t(poly, k):
    """poly times t^k."""
    return {(i, j, d + k): c for (i, j, d), c in poly.items()}


def _over_t2_minus_1(poly):
    """poly / (t^2 - 1) by long division from the top t-degree: exact over
    Z[x, y], as the divisor is monic; AssertionError when it leaves a rest."""
    low = min(d for _, _, d in poly)
    rest, quotient = dict(poly), {}
    while rest:
        i, j, d = max(rest, key=lambda e: e[2])
        assert d >= low + 2, "t^2 - 1 leaves a rest"
        c = rest[i, j, d]
        quotient[i, j, d - 2] = c
        rest = _plus((1, rest), (-c, {(i, j, d): 1, (i, j, d - 2): -1}))
    return quotient


def _in_z(poly):
    """A Laurent polynomial fixed by t -> 1/t, written in z = t + 1/t: take
    off c * (t + 1/t)^d for its top term c * t^d until nothing is left."""
    rest, out = dict(poly), {}
    while rest:
        i, j, d = max(rest, key=lambda e: e[2])
        assert d >= 0, "not fixed by t -> 1/t"
        c = out[i, j, d] = rest[i, j, d]
        rest = _plus((1, rest), (-c, {(i, j, d - 2 * r): math.comb(d, r) for r in range(d + 1)}))
    return out


@pytest.mark.parametrize("sid", ["L0", "L1", "L2"])
def test_surface_is_derived_from_its_link_over_z(sid):
    # Riley's normal form over Z: A = [[x, 1], [-1, 0]] and
    # B = [[0, -t], [1/t, y]] have determinant 1, tr A = x, tr B = y and
    # tr AB = t + 1/t = z.  It covers the pairs with A != +-I and B in
    # general position; the identities below are between polynomials, so
    # that dense set of pairs is enough.  With W = [[w1, w2], [w3, w4]] the
    # Schubert word, AW = WA exactly when w2 + w3 = 0 and
    # w4 - w1 + x w2 = 0.  Each has a factor that holds on the reducible
    # pairs (t^2 - 1, and tx - y, where tr[A, B] = 2) times one quotient,
    # which is f written in z -- times x^2 + y^2 + z^2 - xyz - 3 for L2, the
    # second component that the trace-image test meets off f at p = 5.  The
    # quotient is fixed up to a unit +-t^k of Z[x, y, t, 1/t]: centring its
    # t-degrees fixes k, and the sign is +1 for L0 and L1 and -1 for L2
    one = {(0, 0, 0): 1}
    identity = [[one, {}], [{}, one]]
    matrices = {("a", 1): [[{(1, 0, 0): 1}, one], [{(0, 0, 0): -1}, {}]],
                ("b", 1): [[{}, {(0, 0, 1): -1}], [{(0, 0, -1): 1}, {(0, 1, 0): 1}]]}
    for letter in "ab":
        matrices[letter, -1] = _adjugate(matrices[letter, 1])
        assert _matmul(matrices[letter, 1], matrices[letter, -1]) == identity
    w = identity
    for letter in schubert_word(*LINKS[sid]):
        w = _matmul(w, matrices[letter])
    (w1, w2), (w3, w4) = w
    quotient = _over_t2_minus_1(_plus((1, w2), (1, w3)))
    second = _plus((1, w4), (-1, w1), (1, _times({(1, 0, 0): 1}, w2)))
    reducible = _times({(1, 0, 1): 1, (0, 1, 0): -1}, quotient)  # (tx - y) * quotient
    shifts = {d - e for (*_, d) in second for (*_, e) in reducible}
    assert any(_shift_t(reducible, k) == second for k in shifts)
    low, high = min(d for *_, d in quotient), max(d for *_, d in quotient)
    assert (low + high) % 2 == 0
    want = surface(sid).f.terms
    if sid == "L2":  # times -(x^2 + y^2 + z^2 - xyz - 3)
        want = _times(want, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1, (1, 1, 1): 1, (0, 0, 0): 3})
    assert _in_z(_shift_t(quotient, -(low + high) // 2)) == want


def test_model_refuses_f_outside_the_conic_bundle_shape():
    f = surface("L0").f
    with pytest.raises(ValueError, match="degree above 2 in"):
        SurfaceModel("x^2y", IntPoly(f.vars, {**f.terms, (2, 1, 0): 1}))
    with pytest.raises(ValueError, match=r"are not \(x, y, z\)"):
        SurfaceModel("xzy", IntPoly(("x", "z", "y"), f.terms))


@pytest.mark.parametrize("term, message", [
    # L0 + 5/z: the fiber forms read the z^-1 coefficient into the z^3 slot
    # through index -1, and the brute-force count ignored it (85 points
    # against 99 over F_7)
    ({(0, 0, -1): 5}, r"exponents \(0, 0, -1\) are not 3 nonnegative integers"),
    ({(1, 1): 1}, r"exponents \(1, 1\) are not 3 nonnegative integers"),
    ({(1, 1, 0, 0): 1}, r"exponents \(1, 1, 0, 0\) are not 3 nonnegative integers"),
    ({(0, 0, 1.5): 1}, "exponent 1.5 is not an integer"),
    ({(0, 0, 2.0): 1}, "exponent 2.0 is not an integer"),
    # 0.5 used to be stored as a zero term, int() running after the nonzero test
    ({(0, 0, 0): 0.5}, "coefficient 0.5 is not an integer"),
    ({(0, 0, 0): "1"}, "coefficient '1' is not an integer"),
], ids=["negative", "short", "long", "fractional", "float", "half", "str"])
def test_intpoly_refuses_malformed_terms(term, message):
    f = surface("L0").f
    with pytest.raises(ValueError, match=message):
        IntPoly(f.vars, {**f.terms, **term})


def test_intpoly_keeps_nonzero_terms_only():
    f = surface("L0").f
    assert IntPoly(f.vars, {**f.terms, (0, 0, 0): 0}).terms == f.terms
