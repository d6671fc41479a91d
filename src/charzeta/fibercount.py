"""Point counting through the conic-bundle structure.

The fiber of each surface model over (z : 1) is the plane conic
a(z)(x^2 + y^2) + b(z)xy + c(z)u^2.  a, b and c are read off f's terms
once per model, which is refused in any other shape (_fiber_forms), and
every fiber, over a point of P^1(F_q) or in the residue field of a closed
point, is read from them by one evaluator (_zw_values), Horner's rule
through the field's arithmetic, which leaves the digit encoding of F_q
to finfield.  Every fiber is counted by one rule (_fiber_class) in every
characteristic: from the zeros of the binary part on the line u = 0 and,
in odd characteristic, the square class of -ac.  It is a smooth conic
with q + 1 points unless z is a root of the degenerate locus
c(b^2 - 4a^2), or of bc in characteristic 2.  Off those roots the line
u = 0 of the fiber has a fixed number of points as well, because two
identities hold for every model, checked when it is first used:
b^2 - 4a^2 is a constant k times a square, so the line carries 1 + chi(k)
points in odd characteristic; and a/b = h + h^2 with h = 1/(z + 1) over
F_2(z), so a/b has absolute trace 0 and the line carries 2 points in
characteristic 2.

The totals over P^1(F_q), q = p^n, therefore need only the fibers over
(1 : 0) and over the closed points of the locus.  Its rational roots and
its quadratic factors are split off once over Q.  At odd p a quadratic
factor splits by the quadratic character of its discriminant, with its
roots from one square root mod p; Cantor-Zassenhaus (low_degree_factors)
factors only what is left of degree >= 3, and every factor at p = 2.  The
closed points have degree d <= 2 (checked: a model with a factor of
higher degree mod p is refused), and each fiber is classified once, in
the residue field F_p[z]/(f) = F_{p^d} of its closed point f, by its
class (_fiber_class): q0*m + 1 points, q0 = p^d, and L on the line
u = 0, each of m and L being 0, 1, 2 or q0 + 1, the whole line.  Over F_q
the class lifts by Frobenius descent: for x in F_{p^d}, chi_q(x) =
chi_{p^d}(x)^(n/d) and Tr_{F_q/F_2}(x) = (n/d) Tr_{F_{p^d}/F_2}(x), so one
or two points stay, a conjugate pair becomes 1 + (-1)^(n/d) points and the
whole line q + 1.  At even n a closed point of degree 2 is two conjugate
roots, whose fibers the Frobenius swaps, so it counts twice.  The classes
are tallied once per degree (_lift_sum), which makes each total a
quadratic in q whose coefficients depend on n mod 4 alone, so each n costs
a few integer operations.  No field beyond F_{p^2} is built, and F_{p^2}
multiplies and takes norms in closed form (finfield).  One uncached read
at p (_descent), the only reader of the closed points, gives a Descent:
the points, and the class of each fiber over them and over (1 : 0), the
degree-2 classes only when asked.  descent_series gives the three totals
for n = 1..k, one surfaces.CountTotals each, from one Descent;
fiberwise_totals is its last term.  degenerate_fibers reads one without
the degree-2 classes: every root of the locus in F_q, and (1 : 0) unless
its class is a smooth conic's.  The caches kept serve the reads the
commands repeat: _fiber_forms, read at every fiber; _bundle_loci and
_rational_split, as verify reads one model's loci at every prime; and
_degenerate_fibers, as singular_locus reads again the fibers its caller
lists.  The singular points lie on the degenerate fibers too
(singular_locus).

Closed-form counts are not transcribed here: count_formula evaluates
N_n = sum_u e_u * u^n on the Euler factors at p of the biprojective and
non-affine global products (globalzeta.euler_factor), the one copy of
the theorem, and subtracts for the affine count.  It imports globalzeta
when called, so the descent and the singular locus load neither zeta
module.  It returns a CountTotals too, as varieties.brute_totals does, so
the three methods compare whole.
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest

from . import _record
from .finfield import (MAX_EXT_DEGREE, MAX_Q, Field, FieldError, _fq_gcd, _fq_monic, _fq_pow,
                       _poly_trim, is_prime, low_degree_factors, make_field, split_roots,
                       sqrt_mod)
from .surfaces import CountTotals, SurfaceModel, _as_model

MAX_SINGULAR_LINE_Q = 2048  # singular_locus: a whole singular line lists q + 1 points


@_record
class Descent:
    """One read of a model's fibers at p (_descent): the closed points of
    degree <= 2 of its degenerate locus and the class (m, L) (_fiber_class)
    of each fiber over them, in its residue field, and over (1 : 0)."""

    roots: tuple[int, ...]                          # F_p-roots of the locus, sorted
    quadratics: tuple[tuple[int, ...], ...]         # its irreducible monic quadratics, sorted
    root_classes: tuple[tuple[int, int], ...]       # in F_p, one per root
    quadratic_classes: tuple[tuple[int, int], ...]  # in F_p[z]/(f), or () unless asked
    infinity: tuple[int, int]                       # the fiber over (1 : 0), in F_p
    generic: int                                    # L of every fiber off the locus


@_record
class BiprojectivePoint:
    """A point of P^2 x P^1 in canonical coordinates (encodings)."""

    xyu: tuple[int, int, int]
    zw: tuple[int, int]

    def to_json(self):
        return [list(self.xyu), list(self.zw)]


@functools.lru_cache(maxsize=None)
def _fiber_forms(model: SurfaceModel):
    """(a, b, c) of f = a(z)(x^2 + y^2) + b(z)xy + c(z), each its d + 1
    integer coefficients, z^0 first, read off f's terms once per model.
    Raises ValueError for an f of any other shape."""
    forms = {xy: [0] * (model.deg_zw + 1) for xy in ((2, 0), (0, 2), (1, 1), (0, 0))}
    for (ex, ey, k), coeff in model.f.terms.items():
        forms.setdefault((ex, ey), [0] * (model.deg_zw + 1))[k] = coeff
    if len(forms) > 4 or forms[2, 0] != forms[0, 2]:  # an xu or yu term, or unequal x^2, y^2
        raise ValueError(f"{model.id}: fiber forms outside the supported shape")
    return tuple(forms[2, 0]), tuple(forms[1, 1]), tuple(forms[0, 0])


def _zw_values(field: Field, forms, z: int, w: int) -> list[int]:
    """Each binary form sum_k c_k z^k w^(d-k) of forms, integer lists
    c_0..c_d of one length d + 1, at (z : w), by homogeneous Horner's rule.

    Over F_p in integers, reduced mod p once; over F_{p^n} through the
    Field's scalar arithmetic.  So it works at any q: every fiber of the
    descent and of singular_locus is read through it.  The independent
    count of varieties evaluates its forms on its own.
    """
    out = []
    if field.n == 1:
        for coeffs in forms:
            v, wk = 0, 1
            for c in reversed(coeffs):
                v, wk = v * z + c * wk, wk * w
            out.append(v % field.p)
        return out
    mul, add = field.mul, field.add
    for coeffs in forms:
        v, wk = 0, 1
        for c in reversed(coeffs):
            v, wk = add(mul(v, z), mul(field.int_(c), wk)), mul(wk, w)
        out.append(v)
    return out


def _line_count(field: Field, a: int, b: int) -> int:
    """Zeros of the fiber form a(x^2 + y^2) + bxy + cu^2 on the line u = 0."""
    if a == 0:
        return field.q + 1 if b == 0 else 2
    if field.p != 2:
        disc = field.sub(field.mul(b, b), field.mul(field.int_(4), field.mul(a, a)))
        return 1 + field.quadratic_character(disc)
    if b == 0:
        return 1  # a(x + y)^2
    # x = (b/a)t turns x^2 + (b/a)x + 1 into t^2 + t + (a/b)^2
    return 2 if field.trace(field.mul(a, field.inv(b))) == 0 else 0


def _fiber_class(field: Field, a: int, b: int, c: int) -> tuple[int, int]:
    """(m, L) for the fiber form a(x^2 + y^2) + bxy + cu^2: it has q*m + 1
    points in P^2(F_q), and L on the line u = 0 (_line_count).

    For c = 0 the conic is the cone over the L points from (0 : 0 : 1), so
    m = L; for c != 0 and L in {0, 2} it is smooth, m = 1; otherwise the
    binary part is a*l^2 or 0, and a*l^2 + cu^2 is a line pair, split iff
    -ac is a square, or a double line in characteristic 2 or when a = 0,
    m = 1 + chi(-ac).  So m and L are each 0, 1, 2 or q + 1.
    """
    line = _line_count(field, a, b)
    if c == 0:
        return line, line
    if line in (0, 2) or field.p == 2:
        return 1, line
    return 1 + field.quadratic_character(field.neg(field.mul(a, c))), line


# ---------------------------------------------------------------------------
# totals by Frobenius descent


def _zmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _square_root(d):
    """s with d = lead(d) * s^2, scaled to integer coefficients, or None.

    d is trimmed and integer.  With D = lead(d), the monic s in Q[z] is
    r / D for the r in Z[z] with r^2 = D * d and lead(r) = D: r is integral
    by Gauss's lemma, so its coefficients solve by exact division.
    """
    if (len(d) - 1) % 2:
        return None
    e, lead = (len(d) - 1) // 2, d[-1]
    r = [0] * e + [lead]
    for j in range(1, e + 1):  # match the z^(2e - j) coefficient of r^2
        r[e - j], rem = divmod(lead * d[2 * e - j] - sum(r[e - i] * r[e - j + i]
                                                         for i in range(1, j)), 2 * lead)
        if rem:
            return None
    if _zmul(r, r) != [lead * x for x in d]:
        return None
    scale = math.lcm(*(abs(lead) // math.gcd(x, lead) for x in r))  # of the denominators of r/D
    return [x * scale // lead for x in r]


@functools.lru_cache(maxsize=None)
def _bundle_loci(model: SurfaceModel):
    """(k, odd locus, characteristic-2 locus) of a model's conic bundle.

    The loci are the integer polynomials c*s and b*c in z, where
    b^2 - 4a^2 = k*s^2 (s scaled to integers, so the odd locus has the roots
    of c*(b^2 - 4a^2) at every p not dividing 2k).  Their roots are the
    fibers (z : 1) that are not smooth conics, and off them the u = 0 line
    count is the generic one.  Raises ValueError for a model that breaks
    the fiber shape or either identity the generic counts rest on.
    """
    a, b, c = _fiber_forms(model)
    d = _poly_trim([x - 4 * y for x, y in zip_longest(_zmul(b, b), _zmul(a, a), fillvalue=0)])
    root = _square_root(d)
    if root is None:
        raise ValueError(f"{model.id}: b^2 - 4a^2 is not a constant times a square")
    # a/b = h + h^2 with h = 1/(z + 1)  <=>  b*z = a*(z + 1)^2 over F_2
    if any((x - y) % 2 for x, y in zip_longest(_zmul(b, (0, 1)), _zmul(a, (1, 2, 1)),
                                                fillvalue=0)):
        raise ValueError(f"{model.id}: a/b is not h + h^2 with h = 1/(z + 1) over F_2(z)")
    return d[-1], _zmul(c, root), _zmul(b, c)


def _divide(f, g):
    """f / g over Z, or None when g does not divide f."""
    quot, rem = [0] * (len(f) - len(g) + 1), list(f)
    for i in reversed(range(len(quot))):
        quot[i], carry = divmod(rem[i + len(g) - 1], g[-1])
        if carry:
            return None
        for j, c in enumerate(g):
            rem[i + j] -= quot[i] * c
    return None if any(rem) else quot


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(abs(m)) + 1) if m % d == 0]
    return small + [abs(m) // d for d in small]


def _signed_divisors(m: int) -> list[int]:
    return [s * d for d in _divisors(m) for s in (1, -1)]


def _peel(f, g):
    """(f / g^k, k) for the largest k with g^k | f over Z."""
    k = 0
    while (quot := _divide(f, g)) is not None:
        f, k = quot, k + 1
    return f, k


@functools.lru_cache(maxsize=None)
def _rational_split(locus: tuple[int, ...]):
    """(rational roots, quadratic factors, rest) of an integer polynomial over Q.

    The roots are pairs (u, v), v > 0 and gcd(u, v) = 1, for the roots u/v;
    the quadratic factors are primitive triples (t, s, a), a > 0, for
    az^2 + sz + t; the rest is what is left of the locus after dividing it
    by each v*z - u, then each quadratic, as often as that divides.  The
    root 0 comes from stripping z^m; the others have u | the constant and
    v | the leading coefficient of what remains (the rational-root
    theorem).  What is left then has no root at 0, 1 or -1, and a quadratic
    factor g of it has g(k) | F(k) there: a | the leading coefficient,
    t | F(0), a + s + t | F(1) and a - s + t | F(-1).  No quadratic factor
    splits over Q, as the rational roots are gone.  Every divisor is
    primitive, so the rest vanishes mod p iff the locus does (Gauss's lemma).
    """
    f = _poly_trim(list(locus))
    roots = [(0, 1)] if f and f[0] == 0 else []
    while f and f[0] == 0:
        f.pop(0)
    if not f:
        return (), (), ()
    for v in _divisors(f[-1]):
        for u in _signed_divisors(f[0]):
            if math.gcd(u, v) == 1:
                f, k = _peel(f, (-u, v))
                if k:
                    roots.append((u, v))
    quadratics, at_minus_one = [], sum(f[0::2]) - sum(f[1::2])
    divisors_at_one = _signed_divisors(sum(f))
    for a in _divisors(f[-1]):
        for t in _signed_divisors(f[0]):
            for s in (m - a - t for m in divisors_at_one):
                if a - s + t and at_minus_one % (a - s + t) == 0 and math.gcd(a, s, t) == 1:
                    f, k = _peel(f, (t, s, a))
                    if k:
                        quadratics.append((t, s, a))
    return tuple(roots), tuple(quadratics), tuple(f)


def _split_quadratic(f, p: int):
    """low_degree_factors(f, p) for a primitive quadratic (t, s, a) and an odd p.

    Mod p it is linear when p | a, has the double root -s/(2a) when p | the
    discriminant, and otherwise splits iff the discriminant is a square,
    with roots (-s +- r)/(2a) from one square root r; else it is irreducible.
    """
    t, s, a = (c % p for c in f)
    if a == 0:  # s != 0 or t != 0, as f is primitive
        return ([-t * pow(s, -1, p) % p] if s else []), []
    disc, half = (s * s - 4 * a * t) % p, pow(2 * a, -1, p)
    if disc == 0:
        return [-s * half % p], []
    if make_field(p).quadratic_character(disc) == 1:
        r = sqrt_mod(disc, p)
        return [(r - s) * half % p, (-r - s) * half % p], []
    inv = pow(a, -1, p)
    return [], [[t * inv % p, s * inv % p, 1]]


def _locus_factors(locus, p: int):
    """low_degree_factors(locus, p), sorted, from _rational_split.

    The F_p-roots are u/v mod p for the rational roots with p not dividing
    v, together with those of the other factors.  At odd p the quadratic
    factors split by the quadratic character of their discriminants
    (_split_quadratic); at p = 2 they, and at every p the rest, go through
    low_degree_factors, except a rest that is a constant not divisible by p.
    Factors that meet mod p give each root and quadratic once.  Raises
    FieldError where low_degree_factors(locus, p) does.
    """
    rational, quadratics, rest = _rational_split(tuple(locus))
    factored = [(low_degree_factors if p == 2 else _split_quadratic)(f, p) for f in quadratics]
    if len(rest) != 1 or rest[0] % p == 0:
        factored.append(low_degree_factors(rest, p))
    roots = {u * pow(v, -1, p) % p for u, v in rational if v % p}
    irreducible = set()
    for f_roots, f_quadratics in factored:
        roots.update(f_roots)
        irreducible.update(map(tuple, f_quadratics))
    return sorted(roots), sorted(map(list, irreducible))


def _closed_points(model: SurfaceModel, p: int):
    """The F_p-roots and the irreducible quadratic factors, sorted, of the
    locus of _bundle_loci that applies mod p, from _locus_factors: at odd p
    those of the locus's quadratic factors over Q by their characters, the
    rest by Cantor-Zassenhaus.  Raises FieldError, a ValueError, when k
    vanishes mod an odd p or the locus has a root outside F_{p^2}."""
    k, odd_locus, char2_locus = _bundle_loci(model)
    if p != 2 and k % p == 0:
        raise FieldError(f"{model.id}: b^2 - 4a^2 degenerates mod {p}")
    return _locus_factors(char2_locus if p == 2 else odd_locus, p)


def _descent(model: SurfaceModel, p: int, quadratic: bool) -> Descent:
    """The Descent of model at p, from one read of its closed points
    (_closed_points): each fiber over them is classified in its residue
    field, F_p at a root z and F_p[z]/(f) for an irreducible quadratic f,
    where the class of z encodes as p; the latter only when quadratic is
    true, so that no field beyond F_p is built otherwise.  Raises where
    _closed_points does."""
    roots, quadratics = _closed_points(model, p)
    field, forms = make_field(p), _fiber_forms(model)
    generic = 2 if p == 2 else 1 + field.quadratic_character(field.int_(_bundle_loci(model)[0]))
    residues = [Field(p, 2, modulus=f) for f in quadratics] if quadratic else []
    return Descent(tuple(roots), tuple(map(tuple, quadratics)),
                   tuple(_fiber_class(field, *_zw_values(field, forms, z, 1)) for z in roots),
                   tuple(_fiber_class(r, *_zw_values(r, forms, p, 1)) for r in residues),
                   _fiber_class(field, *_zw_values(field, forms, 1, 0)), generic)


def _lift_sum(counts, q0: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma) with alpha + beta*(-1)^e + gamma*q the sum over
    F_q, q = q0^e, of the counts L or m of fibers over F_{q0} (_fiber_class).

    A count of 1 or 2 stays, a conjugate pair, count 0, becomes 1 + (-1)^e,
    and the whole line, count q0 + 1, becomes q + 1.
    """
    pairs, whole = counts.count(0), counts.count(q0 + 1)
    return sum(counts) + pairs - whole * q0, pairs, whole


def descent_series(model, p: int, k: int) -> list[CountTotals]:
    """Fiberwise totals over F_{p^n} for n = 1..k, by arithmetic on one
    Descent, whose fibers are defined over F_p and F_{p^2}.

    No field beyond F_{p^2} is built, and k = 1 builds none beyond F_p, so
    p^n may exceed 2^63.  A closed point of degree 2 counts twice at even n,
    once for each of its roots.  Raises ValueError for k < 1 or when the
    degenerate locus has a root outside F_{p^2}, FieldError when p is not
    prime or k >= 2 and p^2 > 2^63.  Not cached.
    """
    model = _as_model(model)
    if k < 1:
        raise ValueError(f"extension degree {k} is below 1")
    if k >= 2 and p * p > MAX_Q:
        raise FieldError(f"fiberwise counts at even n need F_{p}^2, beyond 2^63")
    descent = _descent(model, p, k >= 2)
    groups = ((1, descent.root_classes), (2, descent.quadratic_classes))
    tallies = [(d, len(group), _lift_sum([m for m, _ in group], p**d),
                _lift_sum([line for _, line in group], p**d)) for d, group in groups]
    ia, ib, ig = _lift_sum([descent.infinity[0]], p)
    ga, gb, _ = _lift_sum([descent.generic], p)  # L: 0 or 2
    # Over F_q, q = p^n, the q + 1 fibers have q*m + 1 points each, a smooth
    # one m = 1, so biprojective = (q + 1) + q * sum_x m_x over P^1(F_q); and
    # non-affine = q*m_inf + 1 at infinity plus sum_x L_x over A^1(F_q), a
    # smooth fiber with the generic L.  Lifted, m and L are a + b*s + g*q
    # with s = (-1)^(n/d) (_lift_sum), so both totals are quadratics in q
    # whose coefficients each n sums from the tallies of the d dividing n.
    series, q = [], 1
    for n in range(1, k + 1):
        q *= p
        s = -1 if n % 2 else 1
        line_gen, m_inf = ga + gb * s, ia + ib * s
        m0, m1, l0, l1 = m_inf, 1 + ig, 1, m_inf + line_gen
        for d, size, (ma, mb, mg), (la, lb, lg) in tallies:
            if n % d == 0:  # d * size fibers fewer are smooth
                s_d = -1 if n // d % 2 else 1
                m0, m1 = m0 + d * (ma - size + mb * s_d), m1 + d * mg
                l0, l1 = l0 + d * (la + lb * s_d - size * line_gen), l1 + d * lg
        biproj, nonaffine = 1 + q * (1 + m0 + m1 * q), l0 + q * (l1 + ig * q)
        series.append(CountTotals(model.id, p, n, biproj, biproj - nonaffine, nonaffine))
    return series


def fiberwise_totals(model, field: Field) -> CountTotals:
    """The fiberwise totals over the field F_{p^n}: the last of
    descent_series(model, p, n), whose guards a field p^n <= 2^63 passes."""
    return descent_series(model, field.p, field.n)[-1]


def degenerate_fibers(model, field: Field) -> list[tuple[int, int]]:
    """Canonical base points of the fibers that are not smooth conics: the
    F_q-roots of the degenerate locus, and (1 : 0) when that fiber is one.
    Cached per model and field, so singular_locus and its caller split the
    degree-2 points at even n once."""
    return list(_degenerate_fibers(_as_model(model), field))


@functools.lru_cache(maxsize=256)
def _degenerate_fibers(model: SurfaceModel, field: Field) -> tuple[tuple[int, int], ...]:
    descent = _descent(model, field.p, False)
    roots = list(descent.roots)
    if field.n % 2 == 0:
        roots += [z for f in descent.quadratics for z in split_roots(f, field)]
    bases = [(1, field.inv(z)) if z else (0, 1) for z in roots]  # (z : 1), canonical
    m, line = descent.infinity
    if not (m == 1 and line in (0, 2)):  # not a smooth conic (_fiber_class)
        bases.append((1, 0))
    return tuple(sorted(bases))


# ---------------------------------------------------------------------------
# singular locus


def _form_at(field: Field, form, v) -> int:
    """The form a(x^2 + y^2) + bxy + cu^2, form = (a, b, c), at v = (x, y, u)."""
    (a, b, c), (x, y, u), mul, add = form, v, field.mul, field.add
    return add(add(mul(a, add(mul(x, x), mul(y, y))), mul(b, mul(x, y))), mul(c, mul(u, u)))


def _restrict(field: Field, form, v0, v1):
    """(g0, g1, g2) with form(s v0 + t v1) = g0 s^2 + g1 st + g2 t^2."""
    g0, g2 = _form_at(field, form, v0), _form_at(field, form, v1)
    g = _form_at(field, form, [field.add(x, y) for x, y in zip(v0, v1)])
    return g0, field.sub(field.sub(g, g0), g2), g2


def _binary_zeros(field: Field, g):
    """The points of P^1(F_q), canonical, where g0 s^2 + g1 st + g2 t^2, not 0,
    vanishes: (1 : t) for the roots t of gcd(g(1, t), t^q - t), a product of
    distinct linear factors, and (0 : 1) when g2 = 0."""
    zeros, h = [], _poly_trim(list(g))
    if len(h) > 1:
        h = _fq_monic(h, field)
        frob = _fq_pow([0, 1], field.q, h, field) + [0, 0]
        frob[1] = field.sub(frob[1], 1)
        zeros = [(1, t) for t in split_roots(_fq_gcd(h, _poly_trim(frob), field), field)]
    return zeros + ([(0, 1)] if g[2] == 0 else [])


def _fiber_singular_span(field: Field, a: int, b: int, c: int):
    """Canonical vectors spanning the singular set of the fiber conic
    a(x^2 + y^2) + bxy + cu^2, a line's as (1, *, *) and (0, *, *): the
    common kernel of F_x = 2ax + by, F_y = bx + 2ay and F_u = 2cu, or, in
    characteristic 2 with b = 0, where that is the plane, the double line
    sqrt(a)(x + y) + sqrt(c)u = 0, sqrt(v) = v^(q/2).  Raises FieldError
    when the conic is the plane."""
    two_a = field.add(a, a)
    span = [(0, 0, 1)] if field.add(c, c) == 0 else []
    if two_a == b == 0:
        span = [(1, 0, 0), (0, 1, 0)] + span
    elif field.mul(two_a, two_a) == field.mul(b, b):  # odd p and b = +-2a != 0
        span = [(1, field.neg(field.mul(two_a, field.inv(b))), 0)] + span
    if len(span) < 3:
        return span
    if a == c == 0:  # and b = 0
        raise FieldError("a fiber of the model is the whole plane")
    if c == 0:
        return [(1, 1, 0), (0, 0, 1)]
    root = field.pow_(field.mul(a, field.inv(c)), field.q // 2)
    return [(1, 0, root), (0, 1, root)]


def singular_locus(model, field: Field) -> set[BiprojectivePoint]:
    """All F_q-points of V(F) at which the five partials of F vanish.

    A point of a smooth fiber conic has F_x, F_y or F_u nonzero, so each
    lies in the singular set of a fiber over degenerate_fibers: a vertex,
    kept where F, F_z and F_w vanish, or a line, on which the three restrict
    to binary quadratics.  Their common zeros are the zeros of the first
    nonzero one at which the others vanish, or the whole line, listed for
    q <= MAX_SINGULAR_LINE_Q only.  By Euler's identities over Z,
    x F_x + y F_y + u F_u = 2F and z F_z + w F_w = d F, the five partials
    give the Jacobian criterion in every affine chart.  Raises FieldError
    where degenerate_fibers does, for a whole singular line at
    q > MAX_SINGULAR_LINE_Q and for a fiber that is the plane.
    """
    model = _as_model(model)
    d, abc = model.deg_zw, _fiber_forms(model)
    # F_z and F_w: a, b and c differentiated as binary forms of degree d
    by_z = [[k * x for k, x in enumerate(f)][1:] for f in abc]
    by_w = [[(d - k) * x for k, x in enumerate(f)][:-1] for f in abc]
    points = set()
    for base in degenerate_fibers(model, field):
        forms = [_zw_values(field, lists, *base) for lists in (abc, by_z, by_w)]
        a, b, c = forms[0]
        candidates = _fiber_singular_span(field, a, b, c)
        if len(candidates) == 2:
            v0, v1 = candidates
            restricted = [g for g in (_restrict(field, f, v0, v1) for f in forms) if any(g)]
            if restricted:
                zeros = _binary_zeros(field, restricted[0])
            elif field.q > MAX_SINGULAR_LINE_Q:
                raise FieldError(f"whole singular lines are listed for q <= {MAX_SINGULAR_LINE_Q}")
            else:  # every point of the line is singular
                zeros, forms = [(1, t) for t in range(field.q)] + [(0, 1)], []
            # s v0 + t v1 is canonical for canonical (s : t)
            candidates = [tuple(field.add(x, field.mul(t, y)) for x, y in zip(v0, v1)) if s else v1
                          for s, t in zeros]
        points.update(BiprojectivePoint(v, base) for v in candidates
                      if all(_form_at(field, f, v) == 0 for f in forms))
    return points


# ---------------------------------------------------------------------------
# closed-form counts


def count_formula(model, p: int, n: int) -> CountTotals:
    """Closed-form counts N_n = sum_u e_u * u^n over F_{p^n}.

    The exponents e_u are those of the Euler factor at p of the global
    product of the biprojective and of the non-affine space; the affine
    count is their difference.  Raises ValueError for n < 1, FieldError
    when p is not prime or p^n > 2^63.
    """
    surface_id = _as_model(model).id
    if not (isinstance(p, int) and isinstance(n, int) and n >= 1):
        raise ValueError("p and n must be integers with n >= 1")
    if n > MAX_EXT_DEGREE or p**n > MAX_Q:
        raise FieldError("formula counts restricted to p^n <= 2^63")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    from .globalzeta import euler_factor, global_expression  # deferred: see the module docstring

    def count(space):
        return euler_factor(global_expression(surface_id, space), p).counts(n)[-1]

    biproj, nonaffine = count("biprojective"), count("nonaffine")
    return CountTotals(surface_id, p, n, biproj, biproj - nonaffine, nonaffine)
