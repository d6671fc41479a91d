"""Multivariate polynomials with exact integer coefficients.

A minimal representation used for the surface equations: a polynomial is a
mapping from exponent tuples (aligned with a fixed variable list) to
nonzero integer coefficients, with evaluation over the integers.
Finite-field evaluation lives with its callers, which read the terms: surfaces
takes the fiber forms' coefficient lists over z, and varieties reads f as a
quadratic in y whose coefficients are forms in z, each evaluated over F_q.
"""

from __future__ import annotations


class IntPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {tuple(e): int(c) for e, c in terms.items() if c}

    def __eq__(self, other):
        return (isinstance(other, IntPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def degree(self, var: str) -> int:
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def eval_int(self, values: dict) -> int:
        total = 0
        for e, c in self.terms.items():
            t = c
            for v, ex in zip(self.vars, e):
                if ex:
                    t *= values[v] ** ex
            total += t
        return total

    def __repr__(self):
        def mono(e, c):
            parts = []
            if abs(c) != 1 or not any(e):
                parts.append(str(abs(c)))
            for v, ex in zip(self.vars, e):
                if ex == 1:
                    parts.append(v)
                elif ex > 1:
                    parts.append(f"{v}^{ex}")
            return "*".join(parts)

        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), reverse=True)
        s = ""
        for e, c in items:
            s += (" - " if c < 0 else (" + " if s else "")) + mono(e, c)
        return s.lstrip(" +")
