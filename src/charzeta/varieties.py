"""The independent point count of a surface model, through (x, y, z) -> (x, z).

f(x, y, z) has degree at most 2 in (x, y), so in y it reads A y^2 + B y + C
with A = A(z), B = b0(z) + b1(z) x and C = c0(z) + c1(z) x + c2(z) x^2, each
form read off f's terms.  Over a point (x, z) the number of y in F_q with
f = 0 is (_solutions):
  - 1 + chi(B^2 - 4AC) at odd p when A != 0;
  - at p = 2 when A != 0: 1 if B = 0, else 2 or 0 as Tr(AC/B^2) is 0 or 1;
  - 1 when A = 0 != B, and q or 0 when A = B = 0, as C is 0 or not.
brute_totals sums it over the q^2 points (x, z) for the affine count.  The
rest of P^2 x P^1 is the chart (x, y, 1) over (1 : 0), the same sum with
each form's coefficient of z^d, and the line u = 0 over each base point,
whose points (1 : y : 0) are the roots of A y^2 + b1 y + c2, with (0 : 1 : 0)
on it when A = 0; the biprojective count is the sum of the two.  No step
reads the fibration's degenerate loci, the descent or the closed forms
of fibercount, so this count is the ground truth they are checked against.

The arithmetic is on discrete logs at every q, with None for 0, from
tables that _Logs builds for the one count that reads them (a Field holds
none): a product adds logs, a sum goes through the Zech log Z(k),
g^Z(k) = 1 + g^k, and chi at odd p and the trace at p = 2 are read from a
table indexed by log.  x runs through F_q in log order, so the values of a
polynomial at every x cost one table lookup per term and point.
Python integers only: no command but mahler loads numpy.
"""

from __future__ import annotations

from .finfield import Field, FieldError, is_prime
from .surfaces import CountTotals, _as_model

MAX_AFFINE_Q = 2048  # brute_totals

# the (x, y)-monomials of A, b0, b1, c0, c1 and c2, as exponents of x and y
_Y_FORMS = ((0, 2), (0, 1), (1, 1), (0, 0), (1, 0), (2, 0))


class _Logs:
    """F_q on discrete logs: k in [0, q - 1) stands for g^k, None for 0.

    g is the least encoding g >= 2 with g^((q-1)/l) != 1 for each prime
    l | q - 1, a generator (1 at q = 2, whose unit group is trivial); exp[k]
    encodes g^k and log inverts it, with log[0] None.  zech[k] is the log of
    1 + g^k; at odd p chi maps a log, or None, to its quadratic character,
    and at p = 2 trace[k] is Tr(g^k).  The tables are built for each count,
    their only reader, and not cached: only count --surface all builds one
    field's tables again, once per surface.
    """

    def __init__(self, field: Field):
        q = self.q = field.q
        self.p, self.m = field.p, q - 1
        g = 1
        if q > 2:
            checks = [(q - 1) // ell for ell in range(2, q) if (q - 1) % ell == 0 and is_prime(ell)]
            g = next(g for g in range(2, q) if all(field.pow_(g, e) != 1 for e in checks))
        exp = [1]
        for _ in range(q - 2):
            exp.append(field.mul(exp[-1], g))
        self.log = [None] * q
        for k, e in enumerate(exp):
            self.log[e] = k
        self.elements = [None, *range(self.m)]
        self.zech = [self.log[field.add(1, e)] for e in exp]
        if self.p == 2:  # Tr is F_2-linear: the parity of the basis traces an encoding selects
            mask = sum(field.trace(1 << i) << i for i in range(field.n))
            self.trace = [(e & mask).bit_count() & 1 for e in exp]
        else:  # chi(g^k) = (-1)^k, with chi(0) = 0
            self.chi = {None: 0, **{k: (-1) ** k for k in range(self.m)}}

    def const(self, c: int):
        return self.log[c % self.p]

    def add(self, a, b):
        if a is None or b is None:
            return b if a is None else a
        s = self.zech[b - a]  # b - a in (-m, m), so the index wraps once at most
        return None if s is None else (a + s) % self.m

    def mul(self, a, b):
        return None if a is None or b is None else (a + b) % self.m

    def values(self, coeffs, xs) -> list:
        """sum_i coeffs[i] x^i at each x of xs, by Horner's rule (add and mul
        inlined)."""
        m, zech = self.m, self.zech
        out = [coeffs[-1]] * len(xs)
        for c in reversed(coeffs[:-1]):
            if c is None:
                out = [None if v is None or x is None else (v + x) % m for v, x in zip(out, xs)]
            else:
                out = [c if v is None or x is None
                       else None if (s := zech[c - (t := (v + x) % m)]) is None else (t + s) % m
                       for v, x in zip(out, xs)]
        return out

    def chi_sum(self, vals) -> int:
        return sum(map(self.chi.__getitem__, vals))


def _discriminant(F, a, b, c) -> list:
    """The coefficients in x of B^2 - 4aC, for B and C with coefficients b
    and c, where C has twice B's degree."""
    m4a = F.mul(F.const(-4), a)
    d = [F.mul(m4a, ck) for ck in c]
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            d[i + j] = F.add(d[i + j], F.mul(bi, bj))
    return d


def _solutions(F, a, b, c, xs) -> int:
    """The number of (x, y), x in xs, with a y^2 + B(x) y + C(x) = 0, where B
    and C are the polynomials in x with coefficients b and c (low first)."""
    if a is None:  # degree <= 1 in y
        return sum(1 if bx is not None else F.q if cx is None else 0
                   for bx, cx in zip(F.values(b, xs), F.values(c, xs)))
    if F.p > 2:
        return len(xs) + F.chi_sum(F.values(_discriminant(F, a, b, c), xs))
    # p = 2, on logs: y = (B/a) t turns the equation into t^2 + t = aC/B^2,
    # which has two solutions or none as Tr(aC/B^2) is 0 or 1
    m, trace = F.m, F.trace
    return sum(1 if bx is None else 2 if cx is None else 2 - 2 * trace[(a + cx - 2 * bx) % m]
               for bx, cx in zip(F.values(b, xs), F.values(c, xs)))


def brute_totals(model, field: Field) -> CountTotals:
    """Exact counts of V(F) in all three spaces, through the (x, z) projection.

    The affine count sums _solutions over the chart (x, y, 1) at each base
    (z : 1); the non-affine one is the chart over (1 : 0) and the line u = 0
    over all of P^1, and the biprojective count their sum.
    """
    model = _as_model(model)
    if field.q > MAX_AFFINE_Q:
        raise FieldError(f"brute force limited to q <= {MAX_AFFINE_Q}")
    F = _Logs(field)
    forms = [[F.const(model.f.terms.get((i, j, k), 0)) for k in range(model.deg_zw + 1)]
             for i, j in _Y_FORMS]
    bases = list(zip(*(F.values(form, F.elements) for form in forms)))  # at each (z : 1)
    bases.append(tuple(form[-1] for form in forms))                      # at (1 : 0)
    charts = [_solutions(F, A, (b0, b1), (c0, c1, c2), F.elements)
              for A, b0, b1, c0, c1, c2 in bases]
    lines = sum(_solutions(F, A, (b1,), (c2,), [None]) + (A is None)
                for A, _, b1, _, _, c2 in bases)
    affine, nonaffine = sum(charts[:-1]), charts[-1] + lines
    return CountTotals(model.id, field.p, field.n, affine + nonaffine, affine, nonaffine)
