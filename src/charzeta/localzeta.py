"""Local zeta functions: count sequences, factor recovery, closed forms.

A local zeta function here is a finite product prod_u (1 - u*T)^(-e_u)
over the six units u = p^2, -p^2, p, -p, 1, -1 (_units); its count
sequence is N_n = sum_u e_u * u^n.  Recovery inverts that: the counts
N_1..N_6 determine the exponents through one Vandermonde system over the
units, and the later counts must agree with the product it gives.
Everything in this module is exact; no floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# counts recover_factors needs: six solve for the exponents, eight verify them
RECOVERY_COUNTS = 14


class RecoveryError(ValueError):
    """Counts do not come from a product over the candidate unit set."""


def _units(p: int) -> tuple[int, ...]:
    """The candidate units at p, in the order factors are listed."""
    return (p * p, -p * p, p, -p, 1, -1)


@dataclass(frozen=True)
class LocalZetaFactors:
    """Multiset of factors (1 - u*T)^(-e); e > 0 means denominator factor."""

    p: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, p: int, exponents: dict[int, int]) -> "LocalZetaFactors":
        order = _units(p)
        items = []
        for u, e in exponents.items():
            if e == 0:
                continue
            if u not in order:
                raise ValueError(f"unit {u} outside {{+-p^j : j <= 2}} for p = {p}")
            items.append((int(u), int(e)))
        return cls(p, tuple(sorted(items, key=lambda item: order.index(item[0]))))

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def counts(self, k: int) -> list[int]:
        """Implied N_1..N_k."""
        return [sum(e * u**n for u, e in self.factors) for n in range(1, k + 1)]

    def series(self, k: int) -> list[Fraction]:
        return zeta_series_from_counts(self.counts(k))

    def combine(self, other: "LocalZetaFactors", sign: int = 1) -> "LocalZetaFactors":
        """Product (sign=+1) or quotient (sign=-1) by exponent arithmetic."""
        if other.p != self.p:
            raise ValueError("cannot combine local factors at different primes")
        out = self.as_dict()
        for u, e in other.factors:
            out[u] = out.get(u, 0) + sign * e
        return LocalZetaFactors.from_dict(self.p, out)

    def to_json(self):
        return {"p": self.p,
                "factors": [{"unit": u, "exp": e} for u, e in self.factors]}


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


def _solve_linear(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    r = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for col in range(r):
        piv = next((i for i in range(col, r) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(r):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][r] for i in range(r)]


def recover_factors(counts, p: int) -> LocalZetaFactors:
    """Blind reconstruction of the factor multiset from exact counts N_1..N_k.

    Requires k >= RECOVERY_COUNTS.  The exponents solve
    N_n = sum_u e_u * u^n for n = 1..6 over the six units; the units are
    distinct and nonzero for p >= 2, so the solution is unique, and the
    remaining counts verify it.  Raises RecoveryError when the system is
    singular (p < 2), an exponent is not an integer, or the recovered
    factors fail to regenerate the counts exactly.
    """
    counts = [int(x) for x in counts]
    if len(counts) < RECOVERY_COUNTS:
        raise ValueError(f"need at least {RECOVERY_COUNTS} counts, got {len(counts)}")
    us = _units(p)
    sol = _solve_linear([[u**n for u in us] for n in range(1, len(us) + 1)],
                        counts[:len(us)])
    if sol is None:
        raise RecoveryError("unit Vandermonde system is singular")
    for u, e in zip(us, sol):
        if e.denominator != 1:
            raise RecoveryError(f"non-integer exponent {e} for unit {u}")
    result = LocalZetaFactors.from_dict(p, {u: int(e) for u, e in zip(us, sol)})
    if result.counts(len(counts)) != counts:
        raise RecoveryError("recovered factors do not regenerate the counts")
    return result


# ---------------------------------------------------------------------------
# transcribed closed forms


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _biprojective_closed_form(surface_id: str, p: int) -> dict[int, int]:
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


def _nonaffine_closed_form(surface_id: str, p: int) -> dict[int, int]:
    if surface_id in ("L0", "L2"):
        return {2: 3} if p == 2 else {p: 3, 1: -1}
    if surface_id == "L1":
        return {2: 4, 1: -1} if p == 2 else {p: 4, 1: -2}
    raise ValueError(f"unknown surface id {surface_id!r}")


def local_zeta_closed_form(model, p: int, space: str = "biprojective") -> LocalZetaFactors:
    """The transcribed factor multiset for the branch that applies at p.

    The affine factors are the biprojective ones divided by the
    non-affine ones (exponent subtraction), mirroring how the affine
    zeta function is assembled.
    """
    surface_id = model if isinstance(model, str) else model.id
    if space == "biprojective":
        return LocalZetaFactors.from_dict(p, _biprojective_closed_form(surface_id, p))
    if space == "nonaffine":
        return LocalZetaFactors.from_dict(p, _nonaffine_closed_form(surface_id, p))
    if space == "affine":
        big = local_zeta_closed_form(surface_id, p, "biprojective")
        return big.combine(local_zeta_closed_form(surface_id, p, "nonaffine"), sign=-1)
    raise ValueError(f"unknown space {space!r}")
