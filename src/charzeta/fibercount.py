"""Point counting through the conic-bundle structure.

The fiber of each surface over (z : 1) is the plane conic
a(z)(x^2 + y^2) + b(z)xy + c(z)u^2; the model is checked to have equal x^2
and y^2 coefficients and no xu or yu terms.  It is a smooth conic with
q + 1 points unless z is a root of c(b^2 - 4a^2), or of bc in
characteristic 2.  Off those roots the line u = 0 of the fiber has a fixed
number of points as well, because two identities hold for every model,
checked when it is first used: b^2 - 4a^2 is a constant k times a square,
so the line carries 1 + chi(k) points in odd characteristic; and
a/b = h + h^2 with h = 1/(z + 1) over F_2(z), so a/b has absolute trace 0
and the line carries 2 points in characteristic 2.

The totals over P^1(F_q) therefore need only the F_q-roots of one integer
polynomial of small degree (finfield.field_roots) and an exact
classification of the fibers over them and over (1 : 0).  Odd
characteristic fibers are classified as ternary quadratic forms; in
characteristic 2 the count follows from the absolute trace of a/b.  The
size caps below are budgets, not limits of the method.

Closed-form counts are not transcribed here: count_formula evaluates
N_n = sum_u e_u * u^n on the factor multiset of
localzeta.local_zeta_closed_form, the one copy of the per-surface table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .finfield import (Field, FieldError, classify_conic_encs, field_roots, is_prime,
                       make_field)
from .localzeta import local_zeta_closed_form
from .varieties import CountRecord, _as_model

MAX_FIBERWISE_Q = 10**6
MAX_FIBERWISE_Q_CHAR2 = 512
MAX_ALL_REPORTS_Q = 4096
MAX_FORMULA_Q = 1 << 63


@dataclass(frozen=True)
class FiberReport:
    base: tuple[int, int]      # canonical (z : w), encodings
    count: int
    degenerate: bool
    rank: int | None = None    # None in characteristic 2
    split: bool | None = None

    def to_json(self):
        return {"base": list(self.base), "count": self.count,
                "degenerate": self.degenerate, "rank": self.rank,
                "split": self.split}


@dataclass(frozen=True)
class FiberwiseTotals:
    surface: str
    p: int
    n: int
    biprojective: int
    affine: int
    nonaffine: int
    degenerate: tuple[FiberReport, ...]

    def count(self, space: str) -> int:
        return getattr(self, space)


def fiber_form(model, basepoint, field: Field) -> tuple[int, ...]:
    """Coefficients (x^2, y^2, u^2, xy, xu, yu) of F restricted to a fiber."""
    return _as_model(model).fiber_form_encs(basepoint, field)


def _canonical_base(field: Field, z: int, w: int) -> tuple[int, int]:
    if z == 0:
        return (0, 1)
    if w == 0:
        return (1, 0)
    return (1, field.mul(w, field.inv(z)))


def _line_count(field: Field, a: int, b: int) -> int:
    """Zeros of a(x^2 + y^2) + bxy on the line u = 0, a copy of P^1(F_q)."""
    if a == 0:
        return field.q + 1 if b == 0 else 2
    if field.p != 2:
        disc = field.sub(field.mul(b, b), field.mul(field.int_(4), field.mul(a, a)))
        return 1 + field.quadratic_character(disc)
    if b == 0:
        return 1  # a(x + y)^2
    # x = (b/a)t turns x^2 + (b/a)x + 1 into t^2 + t + (a/b)^2
    return 2 if field.trace(field.mul(a, field.inv(b))) == 0 else 0


def classify_fiber(model, basepoint, field: Field) -> FiberReport:
    """Exact report for a single fiber."""
    coeffs = _as_model(model).fiber_form_encs(basepoint, field)
    return _classify_form(coeffs, basepoint, field)


def _classify_form(coeffs, basepoint, field: Field) -> FiberReport:
    """classify_fiber on the fiber form coeffs at basepoint."""
    base = _canonical_base(field, *(int(c) for c in basepoint))
    if field.p != 2:
        cls = classify_conic_encs(field, coeffs)
        return FiberReport(base, cls.point_count, cls.rank < 3, cls.rank, cls.split)
    a, a2, c, b, e, f = coeffs
    if a != a2 or e or f:
        raise AssertionError("fiber form outside the supported shape")
    q = field.q
    if c:
        # a smooth conic (b != 0) or the double line sqrt(a)(x + y) = sqrt(c)u
        count = q + 1
    else:
        # the lines joining the apex (0 : 0 : 1) to the zeros on u = 0
        line = _line_count(field, a, b)
        count = q * q + q + 1 if line == q + 1 else q * line + 1
    # smooth iff b != 0 (partials b*y, b*x, 0) and the apex is off it (c != 0)
    return FiberReport(base, count, not (b and c))


# ---------------------------------------------------------------------------
# totals from the degenerate locus


def _zmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _is_constant_times_square(d) -> bool:
    """Whether d (trimmed, integer) is its leading coefficient times a square in Q[z]."""
    if (len(d) - 1) % 2:
        return False
    e = (len(d) - 1) // 2
    t = [Fraction(x, d[-1]) for x in d]
    s = [Fraction(0)] * e + [Fraction(1)]
    for j in range(1, e + 1):  # match the z^(2e - j) coefficient of s^2
        s[e - j] = (t[2 * e - j] - sum(s[e - i] * s[e - j + i] for i in range(1, j))) / 2
    return _zmul(s, s) == t


@functools.lru_cache(maxsize=None)
def _bundle_loci(surface_id: str):
    """(k, odd locus, characteristic-2 locus) of a surface's conic bundle.

    The loci are integer polynomials in z, a*c*(b^2 - 4a^2) and a*b*c; their
    roots include every fiber (z : 1) that is degenerate or whose u = 0 line
    count may differ from the generic one.  k is the leading coefficient of
    b^2 - 4a^2.  Raises ValueError for a model that breaks the fiber shape or
    either identity the generic counts rest on.
    """
    quad = _as_model(surface_id)._quad_zw
    a, b, c = quad[(2, 0, 0)], quad[(1, 1, 0)], quad[(0, 0, 2)]
    if a != quad[(0, 2, 0)] or any(quad[(1, 0, 1)]) or any(quad[(0, 1, 1)]):
        raise ValueError(f"{surface_id}: fiber forms outside the supported shape")
    d = [x - 4 * y for x, y in zip_longest(_zmul(b, b), _zmul(a, a), fillvalue=0)]
    while d and d[-1] == 0:
        d.pop()
    if not d or not _is_constant_times_square(d):
        raise ValueError(f"{surface_id}: b^2 - 4a^2 is not a constant times a square")
    # a/b = h + h^2 with h = 1/(z + 1)  <=>  b*z = a*(z + 1)^2 over F_2
    if any((x - y) % 2 for x, y in zip_longest(_zmul(b, (0, 1)), _zmul(a, (1, 2, 1)),
                                                fillvalue=0)):
        raise ValueError(f"{surface_id}: a/b is not h + h^2 with h = 1/(z + 1) over F_2(z)")
    return d[-1], _zmul(_zmul(a, c), d), _zmul(_zmul(a, b), c)


@functools.lru_cache(maxsize=256)
def _totals_cached(surface_id: str, p: int, n: int) -> FiberwiseTotals:
    field = make_field(p, n)
    q = field.q
    if p == 2 and q > MAX_FIBERWISE_Q_CHAR2:
        raise FieldError(
            f"fiberwise counting in characteristic 2 limited to q <= {MAX_FIBERWISE_Q_CHAR2}")
    if q > MAX_FIBERWISE_Q:
        raise FieldError(f"fiberwise counting limited to q <= {MAX_FIBERWISE_Q}")
    model = _as_model(surface_id)
    k, odd_locus, char2_locus = _bundle_loci(model.id)
    if p == 2:
        roots, line = field_roots(char2_locus, field), 2
    elif k % p == 0:
        raise FieldError(f"{model.id}: b^2 - 4a^2 degenerates mod {p}")
    else:
        roots = field_roots(odd_locus, field)
        line = 1 + field.quadratic_character(field.int_(k))

    generic = q - len(roots)  # smooth fibers with the generic u = 0 count
    biproj, nonaffine = generic * (q + 1), generic * line
    reports = []
    for z in roots:
        coeffs = model.fiber_form_encs((z, 1), field)
        rep = _classify_form(coeffs, (z, 1), field)
        a, _, _, b, _, _ = coeffs
        biproj += rep.count
        nonaffine += _line_count(field, a, b)
        if rep.degenerate:
            reports.append(rep)
    rep = classify_fiber(model, (1, 0), field)  # entirely non-affine
    biproj += rep.count
    nonaffine += rep.count
    if rep.degenerate:
        reports.append(rep)
    reports.sort(key=lambda r: r.base)
    return FiberwiseTotals(model.id, p, n, biproj, biproj - nonaffine, nonaffine,
                           tuple(reports))


def fiberwise_totals(model, field: Field) -> FiberwiseTotals:
    return _totals_cached(_as_model(model).id, field.p, field.n)


def count_fiberwise(model, field: Field, space: str = "biprojective",
                    all_reports: bool = False):
    """Count by summing fiber contributions over P^1(F_q).

    Returns (CountRecord, reports).  Reports cover the degenerate fibers;
    with all_reports=True (q <= 4096) every fiber is reported, smooth ones
    as rank-3 fibers of q + 1 points.
    """
    model = _as_model(model)
    totals = fiberwise_totals(model, field)
    record = CountRecord(model.id, field.p, field.n, space, "fiberwise",
                         totals.count(space))
    if not all_reports:
        return record, list(totals.degenerate)
    if field.q > MAX_ALL_REPORTS_Q:
        raise FieldError(f"per-fiber reports limited to q <= {MAX_ALL_REPORTS_Q}")
    reports = []
    for z in range(field.q):
        reports.append(classify_fiber(model, (z, 1), field))
    reports.append(classify_fiber(model, (1, 0), field))
    reports.sort(key=lambda r: r.base)
    return record, reports


def degenerate_fibers(model, field: Field) -> list[tuple[int, int]]:
    """Canonical base points of the fibers that are not smooth conics."""
    totals = fiberwise_totals(_as_model(model), field)
    return sorted(r.base for r in totals.degenerate)


# ---------------------------------------------------------------------------
# closed-form counts


def count_formula(model, p: int, n: int, space: str = "biprojective") -> CountRecord:
    """Closed-form count N_n = sum_u e_u * u^n over F_{p^n}.

    The exponents e_u are those of local_zeta_closed_form(model, p, space),
    so the affine count is the biprojective count minus the non-affine one.
    Raises ValueError for n < 1 or an unknown space, FieldError when p is
    not prime or p^n > 2^63.
    """
    surface_id = _as_model(model).id
    if not (isinstance(p, int) and isinstance(n, int) and n >= 1):
        raise ValueError("p and n must be integers with n >= 1")
    if p**n > MAX_FORMULA_Q:
        raise FieldError("formula counts restricted to p^n <= 2^63")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    factors = local_zeta_closed_form(surface_id, p, space).factors
    return CountRecord(surface_id, p, n, space, "formula", sum(e * u**n for u, e in factors))
