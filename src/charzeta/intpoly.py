"""Multivariate polynomials with exact integer coefficients.

The validated input type of the surface equations: a polynomial is a
mapping from exponent tuples (aligned with a fixed variable list) to
nonzero integer coefficients.  Evaluation lives with its callers, which
read the terms: fibercount takes the fiber forms' coefficient lists over
z, and varieties reads f as a quadratic in y whose coefficients are forms
in z, each evaluated over F_q.
"""

from __future__ import annotations

from operator import index


class IntPoly:
    """Raises ValueError for an exponent tuple whose length is not
    len(vars), a negative or non-integer exponent, or a non-integer
    coefficient: a reader indexes or sums the exponents, so such a term
    would be misplaced or dropped without an error."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {}
        for e, c in terms.items():
            e = tuple(_integer(k, "exponent") for k in e)
            if len(e) != len(self.vars) or min(e, default=0) < 0:
                raise ValueError(f"exponents {e} are not {len(self.vars)} nonnegative integers")
            c = _integer(c, "coefficient")
            if c:
                self.terms[e] = c

    def degree(self, var: str) -> int:
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)


def _integer(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
