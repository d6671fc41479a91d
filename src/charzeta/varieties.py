"""The three surfaces, brute-force point enumeration, and singular loci.

Each surface is cut out in affine 3-space by a polynomial f(x, y, z) and in
P^2 x P^1 by the matching bihomogeneous polynomial F(x, y, u, z, w) of
bidegree (2, d).  Brute-force counting enumerates canonical coordinate
representatives (leftmost nonzero coordinate of each factor scaled to 1)
and evaluates the defining polynomial at every one of them; it is the
ground-truth oracle the faster counting paths are checked against.  All
three spaces go through one routine, _zero_masks: F is grouped by its
monomials in (z, w), each group is evaluated once on a set of plane
representatives (x : y : u), and every base point (z : w) then costs one
weighted sum of those grids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .finfield import Field, FieldError
from .intpoly import IntPoly

MAX_AFFINE_Q = 2048
MAX_BIPROJ_Q = 128

SURFACE_IDS = ("L0", "L1", "L2")

QUAD_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class CountRecord:
    surface: str
    p: int
    n: int
    space: str    # affine | biprojective | nonaffine
    method: str   # brute | fiberwise | formula
    count: int

    def to_json(self):
        return {"surface": self.surface, "p": self.p, "n": self.n,
                "space": self.space, "method": self.method, "count": self.count}


@dataclass(frozen=True)
class BiprojectivePoint:
    """A point of P^2 x P^1 in canonical coordinates (encodings)."""

    xyu: tuple[int, int, int]
    zw: tuple[int, int]

    @classmethod
    def from_raw(cls, field: Field, xyu, zw) -> "BiprojectivePoint":
        xyu = tuple(int(c) for c in xyu)
        zw = tuple(int(c) for c in zw)
        if not any(xyu) or not any(zw):
            raise ValueError("projective coordinates cannot be all zero")
        s = field.inv(next(c for c in xyu if c))
        t = field.inv(next(c for c in zw if c))
        return cls(tuple(field.mul(s, c) for c in xyu),
                   tuple(field.mul(t, c) for c in zw))

    def to_json(self):
        return [list(self.xyu), list(self.zw)]


def _zw_monomials(field: Field, z: int, w: int, d: int) -> list[int]:
    """z^k w^(d-k) for k = 0..d, as running products (no w powers when w = 1)."""
    monos = [1]
    for _ in range(d):
        monos.append(field.mul(monos[-1], z))
    if w != 1:
        wp = [1]
        for _ in range(d):
            wp.append(field.mul(wp[-1], w))
        monos = [field.mul(zk, wp[d - k]) for k, zk in enumerate(monos)]
    return monos


class SurfaceModel:
    """One surface: affine polynomial, bihomogeneous model, fiber extractor."""

    def __init__(self, surface_id: str, affine: IntPoly, biprojective: IntPoly):
        self.id = surface_id
        self.f = affine           # variables (x, y, z)
        self.F = biprojective    # variables (x, y, u, z, w)
        self.deg_zw = self.F.degree("z")
        self._validate()
        # fiber extractor data: for each quadratic monomial in (x, y, u),
        # the coefficient list over z at w = 1 and its top z-coefficient
        by_quad = self.F.group_by(("x", "y", "u"))
        self._quad_zw = {}
        for mono in QUAD_MONOMIALS:
            poly_zw = by_quad.get(mono, IntPoly.zero(("z", "w")))
            coeffs = [0] * (self.deg_zw + 1)
            for (ez, ew), c in poly_zw.terms.items():
                coeffs[ez] = c
            self._quad_zw[mono] = tuple(coeffs)

    def _validate(self):
        if self.F.set_one("u").set_one("w") != self.f:
            raise ValueError(f"{self.id}: affine and bihomogeneous models disagree")
        d = self.deg_zw
        for e in self.F.terms:
            if e[0] + e[1] + e[2] != 2 or e[3] + e[4] != d:
                raise ValueError(f"{self.id}: model is not bihomogeneous of bidegree (2, {d})")
        by_quad = self.F.group_by(("x", "y", "u"))
        if any(mono not in QUAD_MONOMIALS for mono in by_quad):
            raise ValueError(f"{self.id}: unexpected monomial in the fiber quadratic form")

    # -- fiber extractor -------------------------------------------------

    def fiber_form_encs(self, basepoint, field: Field) -> tuple[int, ...]:
        """Six coefficients (x^2, y^2, u^2, xy, xu, yu) of the fiber at (z : w).

        Each coefficient is an integer combination of the monomials
        z^k w^(d-k), summed digit by digit and reduced mod p once.
        """
        z, w = (int(c) for c in basepoint)
        if z == 0 and w == 0:
            raise ValueError("(0 : 0) is not a point of the projective line")
        digits = [field.coeffs(m) for m in _zw_monomials(field, z, w, self.deg_zw)]
        out = []
        for mono in QUAD_MONOMIALS:
            acc = [0] * field.n
            for c, dig in zip(self._quad_zw[mono], digits):
                if c:
                    acc = [x + c * y for x, y in zip(acc, dig)]
            out.append(field.encode(acc))
        return tuple(out)

    def __repr__(self):
        return f"SurfaceModel({self.id})"


def _build_models():
    fvars = ("x", "y", "z")
    Fvars = ("x", "y", "u", "z", "w")
    f0 = IntPoly(fvars, {(0, 0, 3): 1, (1, 1, 2): -1, (2, 0, 1): 1,
                         (0, 2, 1): 1, (0, 0, 1): -2, (1, 1, 0): -1})
    F0 = IntPoly(Fvars, {(0, 0, 2, 3, 0): 1, (1, 1, 0, 2, 1): -1,
                         (2, 0, 0, 1, 2): 1, (0, 2, 0, 1, 2): 1,
                         (0, 0, 2, 1, 2): -2, (1, 1, 0, 0, 3): -1})
    f1 = IntPoly(fvars, {(0, 0, 4): 1, (1, 1, 3): -1, (2, 0, 2): 1,
                         (0, 2, 2): 1, (0, 0, 2): -3, (1, 1, 1): -1,
                         (0, 0, 0): 1})
    F1 = IntPoly(Fvars, {(0, 0, 2, 4, 0): 1, (1, 1, 0, 3, 1): -1,
                         (2, 0, 0, 2, 2): 1, (0, 2, 0, 2, 2): 1,
                         (0, 0, 2, 2, 2): -3, (1, 1, 0, 1, 3): -1,
                         (0, 0, 2, 0, 4): 1})
    f2 = IntPoly(fvars, {(0, 0, 3): 1, (1, 1, 2): -1, (2, 0, 1): 1,
                         (0, 2, 1): 1, (0, 0, 1): -1, (1, 1, 0): -1})
    F2 = IntPoly(Fvars, {(0, 0, 2, 3, 0): 1, (1, 1, 0, 2, 1): -1,
                         (2, 0, 0, 1, 2): 1, (0, 2, 0, 1, 2): 1,
                         (0, 0, 2, 1, 2): -1, (1, 1, 0, 0, 3): -1})
    return {"L0": SurfaceModel("L0", f0, F0),
            "L1": SurfaceModel("L1", f1, F1),
            "L2": SurfaceModel("L2", f2, F2)}


_MODELS = _build_models()


def surface(surface_id: str) -> SurfaceModel:
    try:
        return _MODELS[surface_id]
    except KeyError:
        raise ValueError(f"unknown surface id {surface_id!r}; expected one of {SURFACE_IDS}") from None


def _as_model(model) -> SurfaceModel:
    return model if isinstance(model, SurfaceModel) else surface(model)


# ---------------------------------------------------------------------------
# brute-force enumeration


@functools.lru_cache(maxsize=32)
def _p2_reps(p: int, n: int):
    """Canonical representatives of P^2(F_q) as coordinate arrays."""
    q = p**n
    x1 = np.ones(q * q, dtype=np.int64)
    y1 = np.repeat(np.arange(q, dtype=np.int64), q)
    u1 = np.tile(np.arange(q, dtype=np.int64), q)
    x2 = np.zeros(q, dtype=np.int64)
    y2 = np.ones(q, dtype=np.int64)
    u2 = np.arange(q, dtype=np.int64)
    x3 = np.array([0], dtype=np.int64)
    y3 = np.array([0], dtype=np.int64)
    u3 = np.array([1], dtype=np.int64)
    return (np.concatenate([x1, x2, x3]), np.concatenate([y1, y2, y3]),
            np.concatenate([u1, u2, u3]))


def _check_prime_headroom(terms: int, p: int) -> None:
    """Refuse an unreduced int64 sum of `terms` products that could overflow.

    Coefficients and grid values are reduced encodings in [0, p), so each
    product c_k * G_k is at most (p - 1)^2 and the sum fits when
    terms * (p - 1)^2 < 2^63.  With at most five terms and p < MAX_AFFINE_Q
    the sum stays below 5 * 2047^2 < 2^25.
    """
    if terms * (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"{terms} unreduced products mod {p} overflow int64")


def _fiber_zero_masks(field: Field, grids, fibers):
    """Yield (base, mask) per fiber; mask marks the zeros of sum_k c_k * G_k.

    grids are the coefficient grids G_k over the fiber representatives, and
    fibers yields (base, encodings c_k) per base point.  Every point is
    evaluated.  Prime fields sum the products in int64 and reduce once per
    fiber.  Extension fields take the logs of the grids once, with the
    sentinel log 2(q-1) for zero, and multiply by c with one gather from an
    exp table over three periods whose last period is zero; terms are added
    with XOR in characteristic 2 and digit by digit in base p otherwise.
    """
    p, n = field.p, field.n
    if n == 1:
        _check_prime_headroom(len(grids), p)
        for base, cs in fibers:
            acc = np.zeros_like(grids[0])
            for c, g in zip(cs, grids):
                if c:
                    acc += c * g
            yield base, acc % p == 0
        return
    exp, log = field.exp_log_tables()
    m = field.q - 1
    exp3 = np.concatenate([exp, exp, np.zeros(m, dtype=np.int64)])
    logs = [np.where(g == 0, 2 * m, log[g]) for g in grids]
    if p == 2:
        for base, cs in fibers:
            acc = np.zeros_like(grids[0])
            for c, lg in zip(cs, logs):
                if c:
                    acc ^= exp3[log[c]:][lg]
            yield base, acc == 0
        return
    digits = [exp3 // p**j % p for j in range(n)]
    for base, cs in fibers:
        accs = [np.zeros_like(grids[0]) for _ in digits]
        for c, lg in zip(cs, logs):
            if c:
                lc = log[c]
                for acc, table in zip(accs, digits):
                    acc += table[lc:][lg]
        mask = accs[0] % p == 0
        for acc in accs[1:]:
            mask &= acc % p == 0
        yield base, mask


def _zero_masks(model: SurfaceModel, field: Field, plane, bases):
    """Yield ((z, w), mask) per base point; mask marks the zeros of F there.

    plane holds the coordinates (x, y, u) of the representatives, as arrays
    that broadcast together, the first of full length.  F is grouped by its
    monomials z^k w^(d-k); each group is a grid over the plane, and the
    fiber over (z : w) weighs the grids by those monomials.
    """
    groups = sorted(model.F.group_by(("z", "w")).items())
    coords = dict(zip(("x", "y", "u"), plane))
    grids = [poly.eval_field_arrays(field, coords) for _, poly in groups]

    def fibers():
        for z, w in bases:
            monos = _zw_monomials(field, z, w, model.deg_zw)
            yield (z, w), [monos[k] for (k, _), _ in groups]

    return _fiber_zero_masks(field, grids, fibers())


def _zero_count(model: SurfaceModel, field: Field, plane, bases) -> int:
    return sum(int(np.count_nonzero(mask)) for _, mask in _zero_masks(model, field, plane, bases))


def count_affine_brute(model, field: Field) -> CountRecord:
    """Exact size of {(a, b, c) in F_q^3 : f(a, b, c) = 0} by enumeration.

    The plane (x, y, 1) over the bases (z : 1).
    """
    model = _as_model(model)
    q = field.q
    if q > MAX_AFFINE_Q:
        raise FieldError(f"affine brute force limited to q <= {MAX_AFFINE_Q}")
    plane = (np.repeat(np.arange(q, dtype=np.int64), q), np.tile(np.arange(q, dtype=np.int64), q),
             np.ones(1, dtype=np.int64))
    total = _zero_count(model, field, plane, [(z, 1) for z in range(q)])
    return CountRecord(model.id, field.p, field.n, "affine", "brute", total)


def count_biprojective_brute(model, field: Field) -> CountRecord:
    """Exact number of canonical representatives on V(F) in P^2 x P^1."""
    model = _as_model(model)
    if field.q > MAX_BIPROJ_Q:
        raise FieldError(f"biprojective brute force limited to q <= {MAX_BIPROJ_Q}")
    bases = [(z, 1) for z in range(field.q)] + [(1, 0)]
    total = _zero_count(model, field, _p2_reps(field.p, field.n), bases)
    return CountRecord(model.id, field.p, field.n, "biprojective", "brute", total)


def count_nonaffine_brute(model, field: Field) -> CountRecord:
    """Points of V(F) with u = 0 or w = 0 (complement of the affine chart).

    Two disjoint parts: all of P^2 over (1 : 0), and the line u = 0, that is
    (1 : y : 0) and (0 : 1 : 0), over the bases (z : 1).
    """
    model = _as_model(model)
    q = field.q
    if q > MAX_AFFINE_Q:
        raise FieldError(f"non-affine brute force limited to q <= {MAX_AFFINE_Q}")
    line = (np.append(np.ones(q, dtype=np.int64), 0), np.append(np.arange(q, dtype=np.int64), 1),
            np.zeros(1, dtype=np.int64))
    total = (_zero_count(model, field, _p2_reps(field.p, field.n), [(1, 0)])
             + _zero_count(model, field, line, [(z, 1) for z in range(q)]))
    return CountRecord(model.id, field.p, field.n, "nonaffine", "brute", total)


def biprojective_zero_reps(model, field: Field):
    """Coordinates of every canonical representative lying on V(F)."""
    model = _as_model(model)
    if field.q > MAX_BIPROJ_Q:
        raise FieldError(f"surface enumeration limited to q <= {MAX_BIPROJ_Q}")
    x, y, u = _p2_reps(field.p, field.n)
    reps = []
    bases = [(z, 1) for z in range(field.q)] + [(1, 0)]
    for (z, w), mask in _zero_masks(model, field, (x, y, u), bases):
        idx = np.flatnonzero(mask)
        reps.extend((a, b, c, z, w) for a, b, c in
                    zip(x[idx].tolist(), y[idx].tolist(), u[idx].tolist()))
    return reps


# ---------------------------------------------------------------------------
# singular locus


def singular_locus(model, field: Field) -> set[BiprojectivePoint]:
    """All F_q-points of V(F) at which the five partials of F vanish.

    This is the Jacobian criterion in every affine chart containing the
    point.  Euler's identities x F_x + y F_y + u F_u = 2F and
    z F_z + w F_w = d F hold over Z, hence in every characteristic, so at a
    zero of F the partials in the chart variables vanish exactly when all
    five do, whichever chart contains the point.
    """
    model = _as_model(model)
    reps = biprojective_zero_reps(model, field)
    coords = dict(zip(model.F.vars, np.array(reps, dtype=np.int64).T))
    singular = np.ones(len(reps), dtype=bool)
    for v in model.F.vars:
        singular &= model.F.partial(v).eval_field_arrays(field, coords) == 0
    return {BiprojectivePoint.from_raw(field, rep[:3], rep[3:])
            for rep, hit in zip(reps, singular.tolist()) if hit}
