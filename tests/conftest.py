"""Shared test helpers: independent oracles and instantiated expectations."""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import charzeta
from charzeta import BiprojectivePoint, fibercount, is_prime, make_field, surface
from charzeta.fibercount import (_bundle_loci, _fiber_class, _fiber_forms, _line_count, _zmul,
                                 _zw_values)
from charzeta.finfield import (FieldError, _fq_divmod, _fq_gcd, _fq_monic, _fq_pow,
                               _poly_sub_x, _poly_trim, split_roots)
from charzeta.intpoly import IntPoly
from charzeta.localzeta import LocalZetaFactors
from charzeta.specialvalues import _MC_CHUNK, _mc_chunk
from charzeta.surfaces import CountTotals, SurfaceModel, _as_model

MAX_ALL_REPORTS_Q = 4096


def prime_powers_upto(limit):
    out = []
    p = 2
    while p <= limit:
        if is_prime(p):
            q = p
            n = 1
            while q <= limit:
                out.append((p, n))
                q *= p
                n += 1
        p += 1
    return sorted(out, key=lambda t: t[0] ** t[1])


def _legendre(a, p):
    """The Legendre symbol (a/p) by Euler's criterion, 0 when p divides a."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _paper_biprojective(surface_id, p):
    if surface_id == "L0":
        if p == 2:
            return {4: 1, 2: 3, 1: 1}
        if _legendre(2, p) == 1:
            return {p * p: 1, p: 7, 1: 1}
        return {p * p: 1, p: 6, 1: 1, -p: 1}
    if surface_id == "L1":
        if p == 2:
            # (1-4T)^-1 (1-2T)^-2 (1-T)^-1 (1-4T^2)^-1, the last factor
            # splitting as (1-2T)^-1 (1+2T)^-1
            return {4: 1, 2: 3, -2: 1, 1: 1}
        if p == 5:
            return {25: 1, 5: 6, 1: 1}
        if _legendre(5, p) == 1:
            return {p * p: 1, p: 8, 1: 1}
        return {p * p: 1, p: 6, -p: 2, 1: 1}
    if surface_id == "L2":
        return {p * p: 1, p: 3, 1: 1}
    raise ValueError(f"unknown surface id {surface_id!r}")


def _paper_nonaffine(surface_id, p):
    if surface_id in ("L0", "L2"):
        return {2: 3} if p == 2 else {p: 3, 1: -1}
    if surface_id == "L1":
        return {2: 4, 1: -1} if p == 2 else {p: 4, 1: -2}
    raise ValueError(f"unknown surface id {surface_id!r}")


def paper_local_zeta(surface_id, p, space="biprojective"):
    """Oracle for globalzeta.euler_factor: the paper's local zeta function of
    a surface at p, transcribed branch by branch from its per-prime table.

    Only the biprojective and non-affine tables are written down; the affine
    factors are their quotient, by exponent subtraction.  The branches take
    their own Legendre symbols, so nothing is shared with the global products.
    """
    if space == "biprojective":
        exps = _paper_biprojective(surface_id, p)
    elif space == "nonaffine":
        exps = _paper_nonaffine(surface_id, p)
    elif space == "affine":
        exps = _paper_biprojective(surface_id, p)
        for u, e in _paper_nonaffine(surface_id, p).items():
            exps[u] = exps.get(u, 0) - e
    else:
        raise ValueError(f"unknown space {space!r}")
    return LocalZetaFactors.from_dict(p, exps)


def zeta_series_from_counts(counts) -> list[Fraction]:
    """Coefficients c_0..c_k of exp(sum N_n T^n / n), exact rationals.

    Satisfies the Newton-type recurrence k*c_k = sum_{j=1..k} N_j c_{k-j}.
    """
    if len(counts) < 1:
        raise ValueError("at least one count is required")
    n = [Fraction(int(x)) for x in counts]
    c = [Fraction(1)]
    for k in range(1, len(n) + 1):
        s = sum(n[j - 1] * c[k - j] for j in range(1, k + 1))
        c.append(s / k)
    return c


def zeta_series(factors: LocalZetaFactors, k: int) -> list[int]:
    """Coefficients c_0..c_k of prod_u (1 - u*T)^(-e_u), multiplied out: each
    factor is the binomial series sum_j C(e + j - 1, j) (uT)^j, a polynomial
    when e < 0; independent of the counts and of their exponential."""
    series = [1] + [0] * k
    for u, e in factors.factors:
        factor = [math.comb(e + j - 1, j) * u**j if e > 0 else math.comb(-e, j) * (-u)**j
                  for j in range(k + 1)]
        series = [sum(series[i] * factor[j - i] for i in range(j + 1)) for j in range(k + 1)]
    return series


@pytest.fixture
def fresh_descent():
    """Empty every functools cache that fibercount defines around a test that
    patches what they read."""
    caches = [obj for obj in vars(fibercount).values()
              if hasattr(obj, "cache_clear") and obj.__module__ == fibercount.__name__]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def model_with_points_over_w0():
    # L0 plus x u z^3: the fiber over (1 : 0) is u (u + x) = 0, which meets
    # the chart u = 1; for the three surfaces it is u^2 = 0, the line u = 0
    m = surface("L0")
    return SurfaceModel("L0+xuz^3", IntPoly(m.f.vars, {**m.f.terms, (1, 0, 3): 1}))


def conic_bundle(surface_id, a, b, c):
    """The model a(z)(x^2 + y^2) + b(z)xy + c(z) = 0, unregistered; a, b and c
    are integer coefficient lists in z, constant term first."""
    terms = {}
    for (ex, ey), coeffs in (((2, 0), a), ((0, 2), a), ((1, 1), b), ((0, 0), c)):
        for k, coeff in enumerate(coeffs):
            terms[ex, ey, k] = coeff
    return SurfaceModel(surface_id, IntPoly(("x", "y", "z"), terms))


def generated_models():
    """The models with L0's a = z and b = -(z^2 + 1) and c = (z - r)(z^2 + sz + t)
    for every ninth (r, s, t) in [-3, 3]^3, 39 of them, each built from f alone."""
    triples = list(itertools.product(range(-3, 4), repeat=3))[::9]
    return [conic_bundle(f"c=(z-{r})(z^2+{s}z+{t})", [0, 1], [-1, 0, -1],
                         _zmul([-r, 1], [t, s, 1])) for r, s, t in triples]


def field_roots(coeffs, field):
    """Encodings of the distinct roots in F_q of an integer polynomial, sorted.

    h = gcd(z^q - z, g mod p) over F_p keeps the irreducible factors whose
    roots lie in F_q; its F_p-linear part is split in F_p and the rest in
    F_q.
    """
    p = field.p
    prime = make_field(p)
    g = _poly_trim([c % p for c in coeffs])
    if not g:
        raise FieldError(f"the polynomial vanishes identically mod {p}")
    g = _fq_monic(g, prime)
    h = _fq_gcd(g, _poly_sub_x(_fq_pow([0, 1], field.q, g, prime), p), prime)
    linear = _fq_gcd(h, _poly_sub_x(_fq_pow([0, 1], p, h, prime), p), prime)
    return sorted(split_roots(linear, prime)
                  + split_roots(_fq_divmod(h, linear, prime)[0], field))


def fiberwise_totals_fq(model, field):
    """Oracle for the descent: (CountTotals, [(base, points)] of the
    degenerate fibers, canonical bases sorted) from F_q.

    Finds the F_q-roots of a*c*(b^2 - 4a^2) (a*b*c in characteristic 2)
    and classifies every fiber over them, and over (1 : 0), in F_q itself.
    The extra factor a adds fibers whose line u = 0 is counted directly.
    """
    model = _as_model(model)
    k, odd_locus, char2_locus = _bundle_loci(model)
    a = _fiber_forms(model)[0]
    q = field.q
    if field.p == 2:
        roots, line = field_roots(_zmul(a, char2_locus), field), 2
    else:
        roots = field_roots(_zmul(a, odd_locus), field)
        line = 1 + field.quadratic_character(field.int_(k))
    generic = q - len(roots)  # smooth fibers with the generic u = 0 count
    biproj, nonaffine = generic * (q + 1), generic * line
    reports = []
    for z in roots:
        form = fiber_form(model, (z, 1), field)
        count, degenerate = fiber_conic(field, *form)
        biproj += count
        nonaffine += _line_count(field, *form[:2])
        if degenerate:
            reports.append((canonical_coords(field, (z, 1)), count))
    count, degenerate = fiber_conic(field, *fiber_form(model, (1, 0), field))
    biproj += count  # entirely non-affine
    nonaffine += count
    if degenerate:
        reports.append(((1, 0), count))
    reports.sort()
    totals = CountTotals(model.id, field.p, field.n, biproj, biproj - nonaffine, nonaffine)
    return totals, reports


def fiber_form(model, base, field):
    """(a, b, c) of the fiber a(x^2 + y^2) + bxy + cu^2 over base = (z : w),
    as the descent reads it."""
    model = _as_model(model)
    return tuple(_zw_values(field, _fiber_forms(model), *base))


def ternary(a, b, c):
    """The fiber form a(x^2 + y^2) + bxy + cu^2 as the coefficients of x^2,
    y^2, u^2, xy, xu and yu that conic_count_brute takes."""
    return (a, a, c, b, 0, 0)


def fiber_conic(field, a, b, c):
    """(points in P^2(F_q), degenerate) of the fiber form a(x^2 + y^2) + bxy + cu^2,
    from the descent's class (m, L) (_fiber_class): q*m + 1 points, and
    degenerate unless m = 1 and L is 0 or 2, a smooth conic's class."""
    m, line = _fiber_class(field, a, b, c)
    return field.q * m + 1, not (m == 1 and line in (0, 2))


def all_fiber_reports(surface_id, field):
    """(base, points, degenerate) of the fiber over each base of p1_reps,
    q <= MAX_ALL_REPORTS_Q, by fiber_conic."""
    assert field.q <= MAX_ALL_REPORTS_Q, "per-fiber reports limited to q <= 4096"
    return [(base, *fiber_conic(field, *fiber_form(surface_id, base, field)))
            for base in p1_reps(field)]


def p2_reps(field):
    """Canonical representatives of P^2(F_q) as encoding triples."""
    q = field.q
    reps = [(1, y, u) for y in range(q) for u in range(q)]
    reps += [(0, 1, u) for u in range(q)]
    reps.append((0, 0, 1))
    return reps


def p1_reps(field):
    """Canonical representatives of P^1(F_q) as encoding pairs."""
    return [(z, 1) for z in range(field.q)] + [(1, 0)]


@functools.lru_cache(maxsize=None)
def _p2_rep_arrays(p, n):
    return tuple(np.array(c, dtype=np.int64) for c in zip(*p2_reps(make_field(p, n))))


@functools.lru_cache(maxsize=None)
def _p2_monomial(p, n, exps):
    """The monomial in (x, y, u) with exponents exps at every point of
    p2_reps, by the scalar tables."""
    _, mul, _ = _scalar_tables(p, n)
    return [_monomial(mul, 1, xyu, exps) for xyu in p2_reps(make_field(p, n))]


def biprojective_zero_reps(model, field):
    """Canonical representatives (x, y, u, z, w) of the zeros of F at the
    points of p2_reps x p1_reps: over each base point F is a form in
    (x, y, u), summed term by term with the scalar tables at every plane
    point."""
    add, mul, _ = _scalar_tables(field.p, field.n)
    plane = p2_reps(field)
    F = bihomogeneous(model)
    reps = []
    for zw in p1_reps(field):
        form = {}
        for e, c in F.terms.items():
            form[e[:3]] = add[form.get(e[:3], 0)][_monomial(mul, field.int_(c), zw, e[3:])]
        values = [0] * len(plane)
        for e, c in form.items():
            values = [add[v][mul[c][m]] for v, m in zip(values, _p2_monomial(field.p, field.n, e))]
        reps += [xyu + zw for xyu, v in zip(plane, values) if v == 0]
    return reps


def canonical_coords(field, coords):
    """Projective coordinates scaled so that the leftmost nonzero one is 1."""
    if not any(coords):
        raise ValueError("projective coordinates cannot be all zero")
    s = field.inv(next(c for c in coords if c))
    return tuple(field.mul(s, c) for c in coords)


def canonical_point(field, xyu, zw):
    """The BiprojectivePoint of (x : y : u) x (z : w), each factor
    canonical (canonical_coords)."""
    return BiprojectivePoint(canonical_coords(field, xyu), canonical_coords(field, zw))


@functools.lru_cache(maxsize=None)
def _table_arrays(p, n):
    add, mul, _ = _scalar_tables(p, n)
    return np.array(add, dtype=np.int64), np.array(mul, dtype=np.int64)


def conic_count_brute(field, coeff_encs):
    """Independent oracle: count zeros of a ternary quadratic form in P^2.

    The form is evaluated on every representative at once by indexing
    numpy copies of the addition and multiplication tables built from
    Field.add and Field.mul, so it shares no code with the log tables.
    """
    add, mul = _table_arrays(field.p, field.n)
    x, y, u = _p2_rep_arrays(field.p, field.n)
    v = np.zeros_like(x)
    for coef, s, t in zip(coeff_encs, (x, y, u, x, x, y), (x, y, u, y, u, u)):
        v = add[v, mul[int(coef), mul[s, t]]]
    return int(np.count_nonzero(v == 0))


def fiber_determinant(field, a, b, c):
    """Up to a unit, the determinant of the fiber form a(x^2 + y^2) + bxy + cu^2:
    c(b^2 - 4a^2), or bc in characteristic 2.  Zero iff the conic is degenerate."""
    if field.p == 2:
        return field.mul(b, c)
    return field.mul(c, field.sub(field.mul(b, b), field.mul(field.int_(4), field.mul(a, a))))


def schoolbook_mul(field, a, b):
    """Independent oracle: a*b in F_q by digit convolution and long division.

    The digit vectors are convolved term by term, and the convolution is
    reduced by the monic modulus one leading digit at a time, so the oracle
    shares nothing with Field.mul beyond the encoding.
    """
    p, n = field.p, field.n
    ca = [a // p**i % p for i in range(n)]
    cb = [b // p**i % p for i in range(n)]
    conv = [0] * (2 * n - 1)
    for i, ai in enumerate(ca):
        if ai:
            for j, bj in enumerate(cb):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    for t in range(2 * n - 2, n - 1, -1):
        c = conv[t]
        if c:
            for j, mj in enumerate(field.modulus):
                conv[t - n + j] = (conv[t - n + j] - c * mj) % p
    return sum(c * p**i for i, c in enumerate(conv[:n]))


@functools.lru_cache(maxsize=None)
def _scalar_tables(p, n):
    field = make_field(p, n)
    add = [[field.add(a, b) for b in range(field.q)] for a in range(field.q)]
    mul = [[field.mul(a, b) for b in range(field.q)] for a in range(field.q)]
    inv = [None] + [row.index(1) for row in mul[1:]]
    return add, mul, inv


def eval_scalar(poly, field, point):
    """poly at one point (encodings aligned with poly.vars), term by term.

    Uses addition and multiplication tables built from Field.add and
    Field.mul, so it shares no code with the counting paths.
    """
    add, mul, _ = _scalar_tables(field.p, field.n)
    acc = 0
    for e, c in poly.terms.items():
        acc = add[acc][_monomial(mul, field.int_(c), point, e)]
    return acc


def _monomial(mul, t, point, exps):
    """t times the monomial with exponents exps at point, by the table mul."""
    for v, k in zip(point, exps):
        for _ in range(k):
            t = mul[t][v]
    return t


def zero_points_scalar(poly, field, points):
    """Independent oracle: the points at which poly vanishes, one at a time."""
    return [tuple(pt) for pt in points if eval_scalar(poly, field, pt) == 0]


def bihomogeneous(model):
    """F(x, y, u, z, w) of bidegree (2, d), d the z-degree of f: the monomial
    x^a y^b z^c of f becomes x^a y^b u^(2-a-b) z^c w^(d-c), so
    F(x, y, 1, z, 1) = f by construction."""
    m = _as_model(model)
    d = m.deg_zw
    return IntPoly(("x", "y", "u", "z", "w"),
                   {(a, b, 2 - a - b, c, d - c): coeff for (a, b, c), coeff in m.f.terms.items()})


def eval_int(poly, values):
    """poly at one integer point, values a dict by variable name."""
    total = 0
    for e, c in poly.terms.items():
        for v, k in zip(poly.vars, e):
            c *= values[v] ** k
        total += c
    return total


def partial(poly, var):
    """The partial derivative of an IntPoly in var."""
    i = poly.vars.index(var)
    out = {}
    for e, c in poly.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = out.get(tuple(de), 0) + c * e[i]
    return IntPoly(poly.vars, out)


def set_one(poly, var):
    """Substitute var = 1 in an IntPoly and drop it from the variable list."""
    i = poly.vars.index(var)
    out = {}
    for e, c in poly.terms.items():
        e2 = e[:i] + e[i + 1:]
        out[e2] = out.get(e2, 0) + c
    return IntPoly(poly.vars[:i] + poly.vars[i + 1:], out)


_CHART_POS = {"x": 0, "y": 1, "u": 2, "z": 3, "w": 4}


@functools.lru_cache(maxsize=None)
def _chart(model, pv, bv):
    g = set_one(set_one(bihomogeneous(model), pv), bv)
    return g.vars, tuple(partial(g, v) for v in g.vars)


def chart_singular(model, field, rep, pv, bv):
    """Jacobian criterion in the chart pv = bv = 1; None outside the chart.

    The point is rescaled into the chart and the partials of the
    dehomogenised polynomial are evaluated pointwise.
    """
    if rep[_CHART_POS[pv]] == 0 or rep[_CHART_POS[bv]] == 0:
        return None
    _, mul, inv = _scalar_tables(field.p, field.n)
    s = mul[inv[rep[_CHART_POS[pv]]]]
    t = mul[inv[rep[_CHART_POS[bv]]]]
    scaled = [s[c] for c in rep[:3]] + [t[c] for c in rep[3:]]
    chart_vars, partials = _chart(model, pv, bv)
    point = tuple(scaled[_CHART_POS[v]] for v in chart_vars)
    return all(eval_scalar(part, field, point) == 0 for part in partials)


def chart_verdicts(model, field, rep, limit=None):
    """chart_singular in every affine chart that contains the point, or in
    the first `limit` of them."""
    flags = (chart_singular(model, field, rep, pv, bv)
             for pv in ("x", "y", "u") for bv in ("z", "w"))
    return list(itertools.islice((f for f in flags if f is not None), limit))


def singular_points_by_charts(model, field, charts=None):
    """Oracle for singular_locus: the zeros of F over all of P^2 x P^1
    (biprojective_zero_reps) that the Jacobian criterion finds singular in
    the affine charts containing them, or in the first `charts` of them,
    which must agree."""
    points = set()
    for rep in biprojective_zero_reps(model, field):
        flags = chart_verdicts(model, field, rep, charts)
        assert flags and (all(flags) or not any(flags)), (model, field, rep)
        if flags[0]:
            points.add(canonical_point(field, rep[:3], rep[3:]))
    return points


def expected_singular_points(surface_id, field):
    """The singular-point lists instantiated over F_q, as a canonical set."""
    p = field.p
    minus1 = field.neg(1)
    pts = set()

    def add(xyu, zw):
        pts.add(canonical_point(field, xyu, zw))

    if surface_id in ("L0", "L2"):
        add((1, 0, 0), (1, 0))
        add((0, 1, 0), (1, 0))
        add((1, 1, 0), (1, 1))
        add((1, minus1, 0), (1, minus1))
        if p == 2:
            if surface_id == "L0":
                for x in range(field.q):
                    add((x, 1, field.add(x, 1)), (1, 1))
                    add((x, field.add(x, 1), 1), (1, 1))
                    add((1, x, field.add(x, 1)), (1, 1))
                add((0, 0, 1), (0, 1))
            else:
                for x in range(field.q):
                    add((x, x, 1), (1, 1))
                    add((1, 1, x), (1, 1))
        return pts

    if surface_id == "L1":
        add((1, 0, 0), (1, 0))
        add((0, 1, 0), (1, 0))
        add((1, 0, 0), (0, 1))
        add((0, 1, 0), (0, 1))
        add((1, 1, 0), (1, 1))
        add((1, minus1, 0), (1, minus1))
        if p == 5:
            add((0, 0, 1), (1, 2))
            add((0, 0, 1), (1, field.neg(2)))
        if p == 2:
            for x in range(field.q):
                add((x, field.add(x, 1), 1), (1, 1))
                add((x, 1, field.add(x, 1)), (1, 1))
                add((1, x, field.add(x, 1)), (1, 1))
            for w in range(field.q):  # roots of w^2 + w + 1
                if field.add(field.add(field.mul(w, w), w), 1) == 0:
                    add((0, 0, 1), (1, w))
        return pts

    raise ValueError(surface_id)


def _is_irreducible_rabin(mod, p):
    """Rabin's test for a monic polynomial of degree n >= 1 over F_p:
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n, and f | x^(p^n) - x."""
    n = len(mod) - 1
    prime = make_field(p)
    for ell in (d for d in range(2, n + 1) if n % d == 0 and is_prime(d)):
        diff = _poly_sub_x(_fq_pow([0, 1], p ** (n // ell), mod, prime), p)
        if len(_fq_gcd(list(mod), diff, prime)) != 1:
            return False
    return not _poly_sub_x(_fq_pow([0, 1], p**n, mod, prime), p)


def first_irreducible_rabin(p, n):
    """Oracle for finfield.first_irreducible: the same candidate order
    (ascending base-p encoding of the lower coefficients), tested by Rabin."""
    for enc in range(p**n):
        mod = [enc // p**i % p for i in range(n)] + [1]
        if _is_irreducible_rabin(mod, p):
            return tuple(mod)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


def _mean_stderr(total, total_sq, samples):
    mean = total / samples
    if samples > 1:
        var = (total_sq - total * total / samples) / (samples - 1)
        return mean, math.sqrt(max(var, 0.0) / samples)
    return mean, float("inf")


def mahler_mc_serial(poly_id, samples, seed):
    """Oracle for specialvalues.mahler_measure_mc: the textbook form
    (1 + sum cos)^2 + (sum sin)^2 on the same chunked uniforms, one chunk
    after another in a single thread."""
    if poly_id == "1":
        return 0.0, 0.0
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
        t = rng.random((m, 3))
        ang = 2.0 * np.pi * t
        re = 1.0 + np.cos(ang).sum(axis=1)
        im = np.sin(ang).sum(axis=1)
        r2 = re * re + im * im
        r2 = np.maximum(r2, np.finfo(float).tiny)  # the zero set has measure zero
        vals = 0.5 * np.log(r2)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
        chunk_index += 1
    return _mean_stderr(total, total_sq, samples)


def mahler_chunks_serial(samples, seed):
    """specialvalues._mc_chunk called chunk by chunk in one thread, its sums
    added in chunk order: mahler_measure_mc without the pool."""
    total = 0.0
    total_sq = 0.0
    for i, start in enumerate(range(0, samples, _MC_CHUNK)):
        s, sq = _mc_chunk(seed, i, min(_MC_CHUNK, samples - start))
        total += s
        total_sq += sq
    return _mean_stderr(total, total_sq, samples)


def fresh_env(**env):
    """The environment of a fresh interpreter that imports this charzeta;
    env entries replace the inherited ones, and None removes one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(charzeta.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           **env}
    return {k: v for k, v in env.items() if v is not None}


def run_fresh(code, **env):
    """JSON printed by code in a fresh interpreter (see fresh_env)."""
    res = subprocess.run([sys.executable, "-c", code], env=fresh_env(**env),
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout)
