"""The three surfaces, brute-force point enumeration, and singular loci.

Each surface is cut out in affine 3-space by a polynomial f(x, y, z) and in
P^2 x P^1 by the matching bihomogeneous polynomial F(x, y, u, z, w) of
bidegree (2, d).  Brute-force counting enumerates canonical coordinate
representatives (leftmost nonzero coordinate of each factor scaled to 1)
and evaluates the defining polynomial at every one of them; it is the
ground-truth oracle the faster counting paths are checked against.
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
        self._charts = None

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
        """Six coefficients (x^2, y^2, u^2, xy, xu, yu) of the fiber at (z : w)."""
        z, w = (c.enc if hasattr(c, "enc") else int(c) for c in basepoint)
        if z == 0 and w == 0:
            raise ValueError("(0 : 0) is not a point of the projective line")
        d = self.deg_zw
        zp = [field.pow_(z, k) for k in range(d + 1)]
        wp = [field.pow_(w, k) for k in range(d + 1)]
        out = []
        for mono in QUAD_MONOMIALS:
            acc = 0
            for k, c in enumerate(self._quad_zw[mono]):
                if c:
                    acc = field.add(acc, field.mul(field.int_(c),
                                                   field.mul(zp[k], wp[d - k])))
            out.append(acc)
        return tuple(out)

    # -- affine charts for the Jacobian criterion ------------------------

    def charts(self):
        """Dehomogenised polynomial and partials, keyed by chart (pv, bv)."""
        if self._charts is None:
            charts = {}
            for pv in ("x", "y", "u"):
                for bv in ("z", "w"):
                    g = self.F.set_one(pv).set_one(bv)
                    charts[(pv, bv)] = (g, {v: g.partial(v) for v in g.vars})
            self._charts = charts
        return self._charts

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


def _affine_grids(field: Field):
    q = field.q
    x = np.repeat(np.arange(q, dtype=np.int64), q)
    y = np.tile(np.arange(q, dtype=np.int64), q)
    return x, y


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


def count_affine_brute(model, field: Field) -> CountRecord:
    """Exact size of {(a, b, c) in F_q^3 : f(a, b, c) = 0} by enumeration.

    Evaluation is Horner in z on precomputed grids of the z-coefficient
    polynomials in (x, y), one slice per value of z.
    """
    model = _as_model(model)
    q = field.q
    if q > MAX_AFFINE_Q:
        raise FieldError(f"affine brute force limited to q <= {MAX_AFFINE_Q}")
    x, y = _affine_grids(field)
    zgroups = model.f.group_by(("z",))
    dz = model.f.degree("z")
    grids = []
    for k in range(dz + 1):
        poly = zgroups.get((k,), IntPoly.zero(("x", "y")))
        grids.append(poly.eval_field_arrays(field, {"x": x, "y": y}))
    total = 0
    for z in range(q):
        acc = grids[dz]
        for k in range(dz - 1, -1, -1):
            acc = field.v_add(field.v_scale(z, acc), grids[k])
        total += int(np.count_nonzero(acc == 0))
    return CountRecord(model.id, field.p, field.n, "affine", "brute", total)


def _biprojective_fiber_values(model: SurfaceModel, field: Field):
    """Yield (z, w, values-of-F-on-P^2-reps) for every fiber of P^1(F_q)."""
    x, y, u = _p2_reps(field.p, field.n)
    zw_groups = model.F.group_by(("z", "w"))
    part_grids = [(ez, ew, poly.eval_field_arrays(field, {"x": x, "y": y, "u": u}))
                  for (ez, ew), poly in sorted(zw_groups.items())]
    for z in range(field.q):
        vals = np.zeros_like(x)
        for ez, ew, grid in part_grids:
            c = field.pow_(z, ez)  # w = 1
            if c:
                vals = field.v_add(vals, field.v_scale(c, grid))
        yield z, 1, vals
    vals = np.zeros_like(x)
    for ez, ew, grid in part_grids:
        if ew == 0:  # z = 1, w = 0 keeps only pure-z terms
            vals = field.v_add(vals, grid)
    yield 1, 0, vals


def count_biprojective_brute(model, field: Field) -> CountRecord:
    """Exact number of canonical representatives on V(F) in P^2 x P^1."""
    model = _as_model(model)
    if field.q > MAX_BIPROJ_Q:
        raise FieldError(f"biprojective brute force limited to q <= {MAX_BIPROJ_Q}")
    total = 0
    for _, _, vals in _biprojective_fiber_values(model, field):
        total += int(np.count_nonzero(vals == 0))
    return CountRecord(model.id, field.p, field.n, "biprojective", "brute", total)


def _boundary_reps(field: Field):
    """Canonical reps of the boundary {u = 0} union {w = 0} of P^2 x P^1.

    Returned as two disjoint batches: the whole fiber at (1 : 0), and the
    u = 0 points over the fibers (z : 1).
    """
    q = field.q
    x, y, u = _p2_reps(field.p, field.n)
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    batch_w0 = (x, y, u, one, zero)

    # u = 0 reps of P^2: (1 : y : 0) for all y, and (0 : 1 : 0)
    px = np.concatenate([np.ones(q, dtype=np.int64), np.array([0], dtype=np.int64)])
    py = np.concatenate([np.arange(q, dtype=np.int64), np.array([1], dtype=np.int64)])
    m = q + 1
    xs = np.tile(px, q)
    ys = np.tile(py, q)
    us = np.zeros(q * m, dtype=np.int64)
    zs = np.repeat(np.arange(q, dtype=np.int64), m)
    ws = np.ones(q * m, dtype=np.int64)
    batch_u0 = (xs, ys, us, zs, ws)
    return batch_w0, batch_u0


def count_nonaffine_brute(model, field: Field) -> CountRecord:
    """Points of V(F) with u = 0 or w = 0 (complement of the affine chart)."""
    model = _as_model(model)
    if field.q > MAX_AFFINE_Q:
        raise FieldError(f"non-affine brute force limited to q <= {MAX_AFFINE_Q}")
    total = 0
    for x, y, u, z, w in _boundary_reps(field):
        vals = model.F.eval_field_arrays(
            field, {"x": x, "y": y, "u": u, "z": z, "w": w})
        total += int(np.count_nonzero(vals == 0))
    return CountRecord(model.id, field.p, field.n, "nonaffine", "brute", total)


def biprojective_zero_reps(model, field: Field):
    """Coordinates of every canonical representative lying on V(F)."""
    model = _as_model(model)
    if field.q > MAX_BIPROJ_Q:
        raise FieldError(f"surface enumeration limited to q <= {MAX_BIPROJ_Q}")
    x, y, u = _p2_reps(field.p, field.n)
    reps = []
    for z, w, vals in _biprojective_fiber_values(model, field):
        idx = np.flatnonzero(vals == 0)
        for i in idx:
            reps.append((int(x[i]), int(y[i]), int(u[i]), z, w))
    return reps


# ---------------------------------------------------------------------------
# singular locus via the Jacobian criterion in affine charts


_CHART_POS = {"x": 0, "y": 1, "u": 2, "z": 3, "w": 4}


def chart_singular(model, field: Field, rep, pv: str, bv: str) -> bool | None:
    """Whether the point is singular in the chart pv = bv = 1.

    Returns None when the point does not lie in the chart.  The point is
    rescaled into the chart before the partials are evaluated.
    """
    model = _as_model(model)
    coords = list(rep)
    if coords[_CHART_POS[pv]] == 0 or coords[_CHART_POS[bv]] == 0:
        return None
    s = field.inv(coords[_CHART_POS[pv]])
    t = field.inv(coords[_CHART_POS[bv]])
    scaled = [field.mul(s, c) for c in coords[:3]] + [field.mul(t, c) for c in coords[3:]]
    values = dict(zip(("x", "y", "u", "z", "w"), scaled))
    _, partials = model.charts()[(pv, bv)]
    return all(part.eval_field(field, values) == 0 for part in partials.values())


def is_singular_point(model, field: Field, rep) -> bool:
    """All partials vanish in every affine chart containing the point."""
    model = _as_model(model)
    seen = False
    for pv in ("x", "y", "u"):
        for bv in ("z", "w"):
            res = chart_singular(model, field, rep, pv, bv)
            if res is None:
                continue
            if not res:
                return False
            seen = True
    if not seen:
        raise ValueError("point has no containing chart; coordinates all zero?")
    return True


def singular_locus(model, field: Field) -> set[BiprojectivePoint]:
    """All F_q-points of V(F) that are singular in every containing chart."""
    model = _as_model(model)
    out = set()
    for rep in biprojective_zero_reps(model, field):
        if is_singular_point(model, field, rep):
            out.add(BiprojectivePoint.from_raw(field, rep[:3], rep[3:]))
    return out
