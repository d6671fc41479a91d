"""Local zeta functions: factor multisets, count sequences, factor recovery.

A local zeta function here is a finite product prod_u (1 - u*T)^(-e_u)
over the six units u = p^2, -p^2, p, -p, 1, -1 (_units); its count
sequence is N_n = sum_u e_u * u^n.  Recovery inverts that: the counts
N_1..N_6 determine the exponents through one Vandermonde system over the
units, solved in closed (Lagrange) form, and the later counts must agree
with the product it gives.
The module holds no surface's factors: those are the Euler factors of
the global products (globalzeta.euler_factor), the one transcription of
the theorem.  Everything in this module is exact; no floating point is
used.
"""

from __future__ import annotations

import math

from . import _record

# counts recover_factors needs: six solve for the exponents, eight verify them
RECOVERY_COUNTS = 14


class RecoveryError(ValueError):
    """Counts do not come from a product over the candidate unit set."""


def _units(p: int) -> tuple[int, ...]:
    """The candidate units at p, in the order factors are listed."""
    return (p * p, -p * p, p, -p, 1, -1)


@_record
class LocalZetaFactors:
    """Multiset of factors (1 - u*T)^(-e); e > 0 means denominator factor."""

    p: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, p: int, exponents: dict[int, int]) -> "LocalZetaFactors":
        order = dict.fromkeys(_units(p))
        factors = tuple([(u, int(exponents[u])) for u in order if exponents.get(u)])
        if len(factors) < len(exponents):
            outside = [u for u, e in exponents.items() if e and u not in order]
            if outside:
                raise ValueError(f"unit {outside[0]} outside {{+-p^j : j <= 2}} for p = {p}")
        return cls(p, factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def counts(self, k: int) -> list[int]:
        """Implied N_1..N_k, N_n = sum_u e_u * u^n.

        The units are taken per distinct |u| = m: with E+ and E- the
        exponents of m and -m, they add (E+ + (-1)^n E-) * m^n to N_n, so
        the six units of _units take two running powers, of p^2 and p, and
        +-1 add constants.  Units outside _units are summed the same way,
        and a unit listed twice counts with both exponents.
        """
        split = {}
        for u, e in self.factors:
            split.setdefault(abs(u), [0, 0])[u < 0] += e
        plus, minus = split.pop(1, (0, 0))  # the units +-1 need no powers
        out = ([plus - minus, plus + minus] * k)[:k]
        for m, (plus, minus) in split.items():
            power, by_parity = 1, (plus - minus, plus + minus)  # at odd n, at even n
            for i in range(k):
                power *= m
                out[i] += by_parity[i & 1] * power
        return out

    def to_json(self):
        return {"p": self.p,
                "factors": [{"unit": u, "exp": e} for u, e in self.factors]}


def recover_factors(counts, p: int) -> LocalZetaFactors:
    """Blind reconstruction of the factor multiset from exact counts N_1..N_k.

    Requires k >= RECOVERY_COUNTS.  The exponents solve
    N_n = sum_u e_u * u^n for n = 1..6 over the six units; the units are
    distinct and nonzero for p >= 2, so the solution is unique, and the
    remaining counts verify it.  The solve is the Lagrange form of the
    Vandermonde inverse: with P_u(x) = prod_{w != u} (x - w) =
    sum_k c_{u,k} x^k, applying the c_{u,k} to N_{k+1} cancels every unit but
    u, so e_u = (sum_k c_{u,k} N_{k+1}) / (u * P_u(u)), in integers with one
    exact division per unit.  Raises RecoveryError when the system is
    singular (a unit is zero or repeated, p in {-1, 0, 1}), an exponent is
    not an integer, or the recovered factors fail to regenerate the counts
    exactly.
    """
    counts = [int(x) for x in counts]
    if len(counts) < RECOVERY_COUNTS:
        raise ValueError(f"need at least {RECOVERY_COUNTS} counts, got {len(counts)}")
    us = _units(p)
    sol = []  # (numerator, denominator) of each exponent
    for i, u in enumerate(us):
        others = us[:i] + us[i + 1:]
        c = [1]  # P_u, lowest degree first
        for w in others:
            c = [a - w * b for a, b in zip([0] + c, c + [0])]
        sol.append((sum(ck * n for ck, n in zip(c, counts)), u * math.prod(u - w for w in others)))
    if any(den == 0 for _, den in sol):
        raise RecoveryError("unit Vandermonde system is singular")
    for u, (num, den) in zip(us, sol):
        if num % den:
            from fractions import Fraction
            raise RecoveryError(f"non-integer exponent {Fraction(num, den)} for unit {u}")
    result = LocalZetaFactors.from_dict(p, {u: num // den for u, (num, den) in zip(us, sol)})
    if result.counts(len(counts)) != counts:
        raise RecoveryError("recovered factors do not regenerate the counts")
    return result
