"""Surface models built from their affine equations, and count totals.

A model is given by f(x, y, z) of degree at most 2 in (x, y), and the
surface it counts is V(F) in P^2 x P^1, F the bihomogenisation of f of
bidegree (2, d), d the z-degree of f.  The registry holds the paper's
three surfaces; every counting path also takes a SurfaceModel built from
any such f, and reads what it needs off f's terms: fibercount the fiber
forms a(z), b(z) and c(z) of the conic bundle, varieties the forms in z
of f as a quadratic in y.  CountTotals is the one count record: brute
force, the fiberwise descent and the closed formula each return a
surface's counts in all three spaces in one.
"""

from __future__ import annotations

from . import SPACES, SURFACE_IDS, _record
from .intpoly import IntPoly


@_record
class CountTotals:
    """A surface's counts over F_{p^n} in all three spaces, by one method;
    biprojective = affine + nonaffine."""

    surface: str
    p: int
    n: int
    biprojective: int
    affine: int
    nonaffine: int

    def count(self, space: str) -> int:
        """The count in one of SPACES; ValueError for any other name."""
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
        return getattr(self, space)


class SurfaceModel:
    """One surface: its affine polynomial f and deg_zw, f's degree in z.

    Raises ValueError when f's variables are not (x, y, z) or f has degree
    above 2 in (x, y).
    """

    def __init__(self, surface_id: str, affine: IntPoly):
        if affine.vars != ("x", "y", "z"):
            raise ValueError(f"{surface_id}: variables {affine.vars} are not (x, y, z)")
        if any(a + b > 2 for a, b, _ in affine.terms):
            raise ValueError(f"{surface_id}: f has degree above 2 in (x, y)")
        self.id = surface_id
        self.f = affine
        self.deg_zw = affine.degree("z")


def _build_models():
    fvars = ("x", "y", "z")
    f0 = IntPoly(fvars, {(0, 0, 3): 1, (1, 1, 2): -1, (2, 0, 1): 1,
                         (0, 2, 1): 1, (0, 0, 1): -2, (1, 1, 0): -1})
    f1 = IntPoly(fvars, {(0, 0, 4): 1, (1, 1, 3): -1, (2, 0, 2): 1,
                         (0, 2, 2): 1, (0, 0, 2): -3, (1, 1, 1): -1,
                         (0, 0, 0): 1})
    f2 = IntPoly(fvars, {(0, 0, 3): 1, (1, 1, 2): -1, (2, 0, 1): 1,
                         (0, 2, 1): 1, (0, 0, 1): -1, (1, 1, 0): -1})
    return {sid: SurfaceModel(sid, f) for sid, f in zip(SURFACE_IDS, (f0, f1, f2))}


_MODELS = _build_models()


def surface(surface_id: str) -> SurfaceModel:
    try:
        return _MODELS[surface_id]
    except KeyError:
        raise ValueError(f"unknown surface id {surface_id!r}; expected one of {SURFACE_IDS}") from None


def _as_model(model) -> SurfaceModel:
    return model if isinstance(model, SurfaceModel) else surface(model)
