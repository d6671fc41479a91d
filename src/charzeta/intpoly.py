"""Multivariate polynomials with exact integer coefficients.

A minimal representation used for the surface equations: a polynomial is a
mapping from exponent tuples (aligned with a fixed variable list) to
nonzero integer coefficients.  Supports the exact operations the
package needs: grouping by a subset of variables, and evaluation over the
integers.
Finite-field evaluation lives with its callers: surfaces splits a form by
its (x, y, u)-monomials, and varieties evaluates the pieces over F_q.
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

    def group_by(self, subset) -> dict:
        """Split into {exponents over `subset`: IntPoly in the other vars}."""
        subset = tuple(subset)
        idx = [self.vars.index(v) for v in subset]
        rest = [i for i in range(len(self.vars)) if i not in idx]
        rest_vars = tuple(self.vars[i] for i in rest)
        out = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in idx)
            e2 = tuple(e[i] for i in rest)
            out.setdefault(key, {})
            out[key][e2] = out[key].get(e2, 0) + c
        return {k: IntPoly(rest_vars, t) for k, t in out.items()}

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
