"""Global zeta products, their Euler factors, and per-prime verification.

A global expression is a product of shifted Riemann zeta factors and
Dirichlet L-factors, together with per-prime elementary correction
factors (1 +- 2^(a-s))^e.  Where the paper writes the Dedekind zeta
function of Q(sqrt 2) or Q(sqrt 5), the product holds zeta * L(chi_d).
These products are the paper's theorem and its only transcription in the
package: the local zeta function of a surface at p is the Euler factor
of its product (euler_factor), and the closed-form counts
(fibercount.count_formula) are read off it.  Comparing the Euler factor
with the zeta function rebuilt from fiberwise counts verifies the global
factorisation prime by prime: check_local_zeta checks every space of one
surface at one prime on one descent_series read, and the zeta and verify
commands both report its records.
"""

from __future__ import annotations

from operator import attrgetter

from . import SPACES, _record
from .localzeta import RECOVERY_COUNTS, LocalZetaFactors, RecoveryError, recover_factors

RECOVERY_PRIMES = (2, 3)


@_record
class CharacterDesc:
    """An even real Dirichlet character given by its value table."""

    label: str
    modulus: int
    values: tuple[int, ...]   # indexed by residue, 0 off the unit group

    def __call__(self, m: int) -> int:
        return self.values[m % self.modulus]


# quadratic characters attached to Q(sqrt(2)) and Q(sqrt(5))
CHI8 = CharacterDesc("chi8", 8, (0, 1, 0, -1, 0, -1, 0, 1))
CHI5 = CharacterDesc("chi5", 5, (0, 1, -1, -1, 1))


@_record
class ZetaFactorTerm:
    """One factor zeta(s-shift)^exp or L(chi, s-shift)^exp."""

    kind: str                      # riemann | dirichlet
    shift: int
    exp: int
    char: CharacterDesc | None = None


@_record
class ElementaryTerm:
    """A factor (1 - sign * p^(shift - s))^exp, only active at its prime."""

    p: int
    sign: int
    shift: int
    exp: int


@_record
class GlobalZetaExpr:
    factors: tuple[ZetaFactorTerm, ...]
    elementary: tuple[ElementaryTerm, ...]


def _riemann(shift, exp):
    return ZetaFactorTerm("riemann", shift, exp)


def _dirichlet(char, shift, exp):
    return ZetaFactorTerm("dirichlet", shift, exp, char=char)


_AFFINE_EXPR = {
    # zeta_{Q(sqrt2)}(s-1) zeta(s)^2 zeta(s-1)^2 zeta(s-2) (1-2^{1-s})^3 (1-2^{-s}),
    # with zeta_{Q(sqrt2)} = zeta L(chi8)
    "L0": GlobalZetaExpr(
        (_riemann(1, 1), _dirichlet(CHI8, 1, 1), _riemann(0, 2), _riemann(1, 2),
         _riemann(2, 1)),
        (ElementaryTerm(2, 1, 1, 3), ElementaryTerm(2, 1, 0, 1))),
    # zeta_{Q(sqrt5)}(s-1)^2 zeta(s)^3 zeta(s-2) (1-2^{1-s})^3 (1+2^{1-s}) (1-2^{-s}),
    # with zeta_{Q(sqrt5)} = zeta L(chi5)
    "L1": GlobalZetaExpr(
        (_riemann(1, 2), _dirichlet(CHI5, 1, 2), _riemann(0, 3), _riemann(2, 1)),
        (ElementaryTerm(2, 1, 1, 3), ElementaryTerm(2, -1, 1, 1), ElementaryTerm(2, 1, 0, 1))),
    # zeta(s)^2 zeta(s-2) (1-2^{-s})
    "L2": GlobalZetaExpr(
        (_riemann(0, 2), _riemann(2, 1)),
        (ElementaryTerm(2, 1, 0, 1),)),
}

_BIPROJECTIVE_EXPR = {
    # zeta(s-2) zeta(s-1)^6 zeta(s) L(chi8, s-1) (1-2^{1-s})^3
    "L0": GlobalZetaExpr(
        (_riemann(2, 1), _riemann(1, 6), _riemann(0, 1), _dirichlet(CHI8, 1, 1)),
        (ElementaryTerm(2, 1, 1, 3),)),
    # zeta(s-2) zeta(s-1)^6 zeta(s) L(chi5, s-1)^2 (1-2^{1-s})^3 (1+2^{1-s})
    "L1": GlobalZetaExpr(
        (_riemann(2, 1), _riemann(1, 6), _riemann(0, 1), _dirichlet(CHI5, 1, 2)),
        (ElementaryTerm(2, 1, 1, 3), ElementaryTerm(2, -1, 1, 1))),
    # zeta(s-2) zeta(s-1)^3 zeta(s)
    "L2": GlobalZetaExpr(
        (_riemann(2, 1), _riemann(1, 3), _riemann(0, 1)), ()),
}

_NONAFFINE_EXPR = {
    # zeta(s-1)^3 zeta(s)^{-1} (1-2^{-s})^{-1}
    "L0": GlobalZetaExpr(
        (_riemann(1, 3), _riemann(0, -1)), (ElementaryTerm(2, 1, 0, -1),)),
    # zeta(s-1)^4 zeta(s)^{-2} (1-2^{-s})^{-1}
    "L1": GlobalZetaExpr(
        (_riemann(1, 4), _riemann(0, -2)), (ElementaryTerm(2, 1, 0, -1),)),
    "L2": GlobalZetaExpr(
        (_riemann(1, 3), _riemann(0, -1)), (ElementaryTerm(2, 1, 0, -1),)),
}


def global_expression(model, space: str = "affine") -> GlobalZetaExpr:
    """The transcribed global zeta product for a surface and space."""
    surface_id = model if isinstance(model, str) else model.id
    table = {"affine": _AFFINE_EXPR, "biprojective": _BIPROJECTIVE_EXPR,
             "nonaffine": _NONAFFINE_EXPR}.get(space)
    if table is None:
        raise ValueError(f"unknown space {space!r}")
    if surface_id not in table:
        raise ValueError(f"unknown surface id {surface_id!r}")
    return table[surface_id]


def main_term_expression(model) -> GlobalZetaExpr:
    """The affine product without its elementary terms."""
    expr = global_expression(model, "affine")
    return GlobalZetaExpr(expr.factors, ())


def euler_factor(expr: GlobalZetaExpr, p: int) -> LocalZetaFactors:
    """Euler factor of a global expression at p, in T = p^(-s).

    zeta(s-j)^e gives (1 - p^j T)^(-e), and L(chi, s-j)^e gives
    (1 - chi(p) p^j T)^(-e), trivial when chi(p) = 0.  Elementary terms
    apply only at their own prime, on the numerator side.
    """
    exps: dict[int, int] = {}
    for f in expr.factors:
        if f.kind == "riemann":
            v = 1
        elif f.kind == "dirichlet":
            v = f.char(p)
        else:
            raise ValueError(f"unknown factor kind {f.kind!r}")
        if v:
            u = v * p**f.shift
            exps[u] = exps.get(u, 0) + f.exp
    for el in expr.elementary:
        if el.p == p:
            u = el.sign * p**el.shift
            exps[u] = exps.get(u, 0) - el.exp
    return LocalZetaFactors.from_dict(p, exps)


# ---------------------------------------------------------------------------
# per-prime verification against computed local zetas


def check_local_zeta(surface_id: str, p: int, spaces=SPACES) -> dict:
    """The verify record of one surface at p: each space's Euler factor
    against the fiberwise counts N_1..N_14 of one descent_series read.

    For p in RECOVERY_PRIMES ("recovered" mode) the factors are recovered
    blind from the counts and must equal the Euler factor; recovered is
    None, with the error, where recovery fails.  At every other prime
    ("series" mode) the counts must equal those the Euler factor implies,
    up to first_mismatch_n.  Each item of "spaces" holds the Euler factor,
    the counts and its verdict "pass"; fiberwise_vs_formula gives the least
    n, over the spaces and in either mode, where counts and Euler factor
    disagree.  Mismatches become report entries, never exceptions.
    """
    from .fibercount import descent_series  # deferred: `special` needs no field code
    series = descent_series(surface_id, p, RECOVERY_COUNTS)
    mode = "recovered" if p in RECOVERY_PRIMES else "series"
    items, mismatches = {}, []
    for space in spaces:
        euler = euler_factor(global_expression(surface_id, space), p)
        counts = list(map(attrgetter(space), series))  # space is checked by global_expression
        item = items[space] = {"euler": euler.to_json(), "counts": counts}
        if mode == "recovered":
            try:
                got = recover_factors(counts, p)
                item["recovered"], item["pass"] = got.to_json(), got == euler
            except RecoveryError as exc:
                item["recovered"], item["error"], item["pass"] = None, str(exc), False
            if item["pass"]:  # recover_factors regenerated the counts from its factors
                continue
        implied = euler.counts(len(counts))
        first_bad = None if implied == counts else next(
            n for n, (x, y) in enumerate(zip(counts, implied), 1) if x != y)
        if mode == "series":
            item["first_mismatch_n"], item["pass"] = first_bad, first_bad is None
        if first_bad is not None:
            mismatches.append(first_bad)
    first_bad = min(mismatches, default=None)
    return {"surface": surface_id, "p": p, "mode": mode, "spaces": items,
            "fiberwise_vs_formula": {"pass": first_bad is None, "first_mismatch_n": first_bad},
            "pass": all(item["pass"] for item in items.values())}


def verify_global(model, primes) -> list[dict]:
    """check_local_zeta's records in every space at each prime, ordered by
    prime; each series-mode item gives how many counts it checked in place
    of the counts themselves."""
    surface_id = model if isinstance(model, str) else model.id
    records = [check_local_zeta(surface_id, p) for p in sorted(set(primes))]
    for record in records:
        for item in record["spaces"].values():
            checked = len(item.pop("counts"))
            if record["mode"] == "series":
                item["checked_n"] = checked
    return records
