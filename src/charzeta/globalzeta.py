"""Global zeta products, their Euler factors, and per-prime verification.

A global expression is a product of shifted Riemann zeta factors,
quadratic Dedekind zeta factors, and Dirichlet L-factors, together with
per-prime elementary correction factors (1 +- 2^(a-s))^e.  These products
are the paper's theorem and its only transcription in the package: the
local zeta function of a surface at p is the Euler factor of its product
(euler_factor), taken after each Dedekind factor is rewritten as
zeta * L(chi_d) (dedekind_expand), and the closed-form counts
(fibercount.count_formula) are read off it.  Comparing the Euler factor
with the zeta function rebuilt from fiberwise counts verifies the global
factorisation prime by prime.
"""

from __future__ import annotations

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

QUADRATIC_CHAR = {2: CHI8, 5: CHI5}


@_record
class ZetaFactorTerm:
    """One factor zeta(s-shift)^exp, zeta_K(s-shift)^exp or L(chi, s-shift)^exp."""

    kind: str                      # riemann | dedekind | dirichlet
    shift: int
    exp: int
    d: int | None = None           # dedekind: the squarefree d of Q(sqrt d)
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


def _dedekind(d, shift, exp):
    return ZetaFactorTerm("dedekind", shift, exp, d=d)


def _dirichlet(char, shift, exp):
    return ZetaFactorTerm("dirichlet", shift, exp, char=char)


_AFFINE_EXPR = {
    # zeta_{Q(sqrt2)}(s-1) zeta(s)^2 zeta(s-1)^2 zeta(s-2) (1-2^{1-s})^3 (1-2^{-s})
    "L0": GlobalZetaExpr(
        (_dedekind(2, 1, 1), _riemann(0, 2), _riemann(1, 2), _riemann(2, 1)),
        (ElementaryTerm(2, 1, 1, 3), ElementaryTerm(2, 1, 0, 1))),
    # zeta_{Q(sqrt5)}(s-1)^2 zeta(s)^3 zeta(s-2) (1-2^{1-s})^3 (1+2^{1-s}) (1-2^{-s})
    "L1": GlobalZetaExpr(
        (_dedekind(5, 1, 2), _riemann(0, 3), _riemann(2, 1)),
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
    """The Dedekind-product part of the affine expression (elementary stripped)."""
    expr = global_expression(model, "affine")
    return GlobalZetaExpr(expr.factors, ())


def dedekind_expand(expr: GlobalZetaExpr) -> GlobalZetaExpr:
    """Rewrite each zeta_{Q(sqrt d)}(s-j)^e as zeta(s-j)^e * L(chi_d, s-j)^e."""
    out = []
    for f in expr.factors:
        if f.kind == "dedekind":
            out.append(_riemann(f.shift, f.exp))
            out.append(_dirichlet(QUADRATIC_CHAR[f.d], f.shift, f.exp))
        else:
            out.append(f)
    return GlobalZetaExpr(tuple(out), expr.elementary)


def euler_factor(expr: GlobalZetaExpr, p: int) -> LocalZetaFactors:
    """Euler factor of a global expression at p, in T = p^(-s).

    Dedekind factors are first rewritten as zeta * L(chi_d)
    (dedekind_expand).  zeta(s-j)^e then gives (1 - p^j T)^(-e), and
    L(chi, s-j)^e gives (1 - chi(p) p^j T)^(-e), trivial when chi(p) = 0.
    Elementary terms apply only at their own prime, on the numerator side.
    """
    exps: dict[int, int] = {}

    def bump(u, e):
        exps[u] = exps.get(u, 0) + e

    for f in dedekind_expand(expr).factors:
        u = p**f.shift
        if f.kind == "riemann":
            bump(u, f.exp)
        elif f.kind == "dirichlet":
            v = f.char(p)
            if v:
                bump(v * u, f.exp)
        else:
            raise ValueError(f"unknown factor kind {f.kind!r}")
    for el in expr.elementary:
        if el.p == p:
            bump(el.sign * p**el.shift, -el.exp)
    return LocalZetaFactors.from_dict(p, exps)


# ---------------------------------------------------------------------------
# per-prime verification against computed local zetas


def counts_for_space(surface_id: str, p: int, space: str, k: int) -> list[int]:
    """N_1..N_k of one space, all by fiberwise counting (descent_series)."""
    from .fibercount import descent_series  # deferred: `special` needs no field code
    return [t.count(space) for t in descent_series(surface_id, p, k)]


@_record
class LocalZetaCheck:
    """The outcome of check_local_zeta for one surface, prime and space."""

    mode: str              # recovered (p = 2, 3) or series
    euler: LocalZetaFactors
    counts: tuple[int, ...]
    detail: dict           # recovered (and error), or first_mismatch_n
    passed: bool
    first_mismatch_n: int | None  # first n where counts differ from euler's, in either mode


def check_local_zeta(surface_id: str, p: int, space: str) -> LocalZetaCheck:
    """Check the Euler factor at p against the fiberwise counts.

    The counts are N_1..N_14 from counts_for_space.  For p in {2, 3} the
    factors are recovered blind from them and must equal the Euler factor;
    for other primes they must equal the counts the Euler factor implies.
    """
    return _check_counts(surface_id, p, space,
                         counts_for_space(surface_id, p, space, RECOVERY_COUNTS))


def _check_counts(surface_id: str, p: int, space: str, counts: list[int]) -> LocalZetaCheck:
    euler = euler_factor(global_expression(surface_id, space), p)
    if p not in RECOVERY_PRIMES:
        first_bad = _first_mismatch(counts, euler)
        return LocalZetaCheck("series", euler, tuple(counts), {"first_mismatch_n": first_bad},
                              first_bad is None, first_bad)
    try:
        got = recover_factors(counts, p)
        detail, ok = {"recovered": got.to_json()}, got == euler
    except RecoveryError as exc:
        detail, ok = {"recovered": None, "error": str(exc)}, False
    # recover_factors regenerated the counts from its factors, so a recovery
    # that matched the Euler factor has no mismatch
    return LocalZetaCheck("recovered", euler, tuple(counts), detail, ok,
                          None if ok else _first_mismatch(counts, euler))


def _first_mismatch(counts, euler: LocalZetaFactors) -> int | None:
    return next((n for n, (x, y) in enumerate(zip(counts, euler.counts(len(counts))), 1)
                 if x != y), None)


def _verify_one_prime(surface_id: str, p: int) -> dict:
    from .fibercount import descent_series
    series = descent_series(surface_id, p, RECOVERY_COUNTS)
    checks = {space: _check_counts(surface_id, p, space, [t.count(space) for t in series])
              for space in SPACES}
    first_bad = min((c.first_mismatch_n for c in checks.values()
                     if c.first_mismatch_n is not None), default=None)
    spaces = {}
    for space, c in checks.items():
        spaces[space] = {"euler": c.euler.to_json(), **c.detail, "pass": c.passed}
        if c.mode == "series":
            spaces[space]["checked_n"] = len(c.counts)
    return {"surface": surface_id, "p": p, "mode": checks[SPACES[0]].mode,
            "spaces": spaces,
            "fiberwise_vs_formula": {"pass": first_bad is None, "first_mismatch_n": first_bad},
            "pass": first_bad is None and all(c.passed for c in checks.values())}


def verify_global(model, primes) -> list[dict]:
    """Check euler_factor(global expression) against computed local zetas.

    Each prime takes one descent series, and each space is checked on it as
    check_local_zeta checks it; the fiberwise counts N_1..N_14 of every
    space are compared with those the Euler factors imply.  Mismatches
    become report entries, never exceptions.  Reports are ordered by prime.
    """
    surface_id = model if isinstance(model, str) else model.id
    return [_verify_one_prime(surface_id, p) for p in sorted(set(primes))]
