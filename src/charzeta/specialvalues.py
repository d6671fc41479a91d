"""Numerical special values: zeta, Dirichlet L, Laurent leading terms,
regulators, and the Monte Carlo Mahler measure.

Every zeta and L value comes from one Euler-Maclaurin sum for the Hurwitz
zeta function with its pole term removed (hurwitz_zeta_deflated): the
Riemann zeta function is that sum at a = 1 plus the pole term for
s >= 1/2, and the reflection formula below; Dirichlet L-functions are
character sums of it, which stay valid at negative arguments.  Laurent
leading terms at integer points are assembled factorwise from a fixed
order bookkeeping table (poles and trivial zeros of the classical
factors), with simple-zero coefficients obtained by Richardson-improved
central differences.  Only real arguments in [-3, 4] are supported.

The Monte Carlo Mahler measure evaluates its seeded chunks of 2^17
samples on up to four threads and merges them in chunk order, so its
result does not depend on the thread count.  Each sample takes three
tangents at half angles, in a form of |1 + x + y + z|^2 (_torus_abs2)
whose two terms are nonnegative near the zero set, in place of the
textbook (1 + sum cos)^2 + (sum sin)^2, which the tests hold it to within
2e-14 absolute, and the mean and stderr within 1e-13 relative.  Each
chunk runs in blocks of 16384 rows, the log and the sums included.  It
is the only part of this module that uses numpy, which it imports on the
calling thread before the pool starts; everything else here is scalar
floating point, so `special` never loads numpy.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from typing import TYPE_CHECKING

from . import _record

if TYPE_CHECKING:  # globalzeta is imported where it is used, so `mahler` skips it
    from .globalzeta import CharacterDesc, GlobalZetaExpr

S_MIN, S_MAX = -3.0, 4.0
POLE_GUARD = 1e-3

# Bernoulli numbers B_2 .. B_28, each the double nearest the exact quotient
_BERNOULLI = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730, 8553103 / 6, -23749461029 / 870]

_EM_N = 32


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s in [-3, 4], away from the pole at 1.

    The deflated Hurwitz sum at a = 1 plus 1/(s-1) for s >= 1/2, the
    reflection formula below; relative error well under 1e-10.  The
    Hurwitz sum alone would also reach s < 1/2, but its cancelling terms
    put zeta'(-2) about 5e-8 (relative) off.
    """
    s = float(s)
    if not S_MIN <= s <= S_MAX:
        raise ValueError(f"argument {s} outside [{S_MIN}, {S_MAX}]")
    if abs(s - 1.0) < POLE_GUARD * (1.0 - 1e-9):  # slack admits s = 1 +- 1e-3 exactly
        raise ValueError(f"argument {s} too close to the pole at 1")
    if abs(s) < 1e-12:
        return -0.5
    if s >= 0.5:
        return hurwitz_zeta_deflated(s, 1.0) + 1.0 / (s - 1.0)
    # reflection: zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
    return (2.0**s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
            * math.gamma(1.0 - s) * riemann_zeta(1.0 - s))


def hurwitz_zeta_deflated(s: float, a: float) -> float:
    """zeta_H(s, a) - 1/(s-1) by Euler-Maclaurin, for s in [-3, 4], 0 < a <= 1.

    Removing the pole term keeps the expression finite at s = 1, where
    the value is -digamma(a).
    """
    if not S_MIN <= s <= S_MAX:
        raise ValueError(f"argument {s} outside [{S_MIN}, {S_MAX}]")
    if not 0.0 < a <= 1.0:
        raise ValueError("second argument must lie in (0, 1]")
    # at s < 0 the leading terms grow like (N+a)^(-s) and nearly cancel,
    # so a small N keeps the rounding error below the 1e-9 contract; the
    # tail series still converges fast since (2 pi N)^2 >> (2j)^2
    n_terms = _EM_N if s >= 0.5 else 10
    x = n_terms + a
    total = math.fsum((k + a) ** (-s) for k in range(n_terms))
    lx = math.log(x)
    if abs(s - 1.0) < 1e-12:
        total += -lx
    else:
        total += math.expm1((1.0 - s) * lx) / (s - 1.0)
    total += 0.5 * x ** (-s)
    poch = s                      # rising factorial s (s+1) ... (s+2j-2)
    xpow = x ** (-s - 1.0)
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * poch * xpow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        xpow /= x * x
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def dirichlet_L(char: CharacterDesc, s: float) -> float:
    """L(chi, s) for real s in [-3, 4], valid through s = 1 and at s <= 0.

    Character sum of deflated Hurwitz values; the pole terms cancel
    exactly because the character values sum to zero.
    """
    m = char.modulus
    if sum(char(r) for r in range(m)) != 0:
        raise ValueError("character values must sum to zero over a period")
    total = 0.0
    for r in range(1, m):
        v = char(r)
        if v:
            total += v * hurwitz_zeta_deflated(s, r / m)
    return m ** (-s) * total


# ---------------------------------------------------------------------------
# quadratic field data and regulators


@_record
class QuadraticFieldData:
    d: int
    discriminant: int
    class_number: int
    roots_of_unity: int
    fundamental_unit: float
    regulator: float


QUAD_FIELD_DATA = {
    2: QuadraticFieldData(2, 8, 1, 2, 1.0 + math.sqrt(2.0),
                          math.log(1.0 + math.sqrt(2.0))),
    5: QuadraticFieldData(5, 5, 1, 2, (1.0 + math.sqrt(5.0)) / 2.0,
                          math.log((1.0 + math.sqrt(5.0)) / 2.0)),
}


def regulator(d: int) -> float:
    """log of the fundamental unit of Q(sqrt d), d in {2, 5}."""
    try:
        return QUAD_FIELD_DATA[d].regulator
    except KeyError:
        raise ValueError(f"unsupported quadratic field d = {d}") from None


# ---------------------------------------------------------------------------
# Laurent leading terms


@_record
class LaurentLeading:
    s0: float
    order: int       # > 0 zero, < 0 pole, 0 regular
    coefficient: float


# order bookkeeping: argument -> order of the factor there
_RIEMANN_ORDERS = {1: -1, -2: 1, -4: 1}
_EVEN_L_ORDERS = {0: 1, -2: 1}

_DIFF_H = 1e-4


def _derivative(f, a: float) -> float:
    """Central difference with one Richardson extrapolation step."""
    def d(h):
        return (f(a + h) - f(a - h)) / (2.0 * h)

    return (4.0 * d(_DIFF_H) - d(2.0 * _DIFF_H)) / 3.0


def _factor_leading(kind: str, char, arg: float):
    """(order, leading coefficient) of one zeta/L factor at a real integer."""
    iarg = round(arg)
    exact_int = abs(arg - iarg) < 1e-12
    if kind == "riemann":
        order = _RIEMANN_ORDERS.get(iarg, 0) if exact_int else 0
        if order == -1:
            return order, 1.0          # exact limit (s-1) zeta(s) -> 1
        if order == 1:
            return order, _derivative(riemann_zeta, float(iarg))
        return 0, riemann_zeta(arg)
    if kind == "dirichlet":
        order = _EVEN_L_ORDERS.get(iarg, 0) if exact_int else 0
        if order == 1:
            return order, _derivative(lambda t: dirichlet_L(char, t), float(iarg))
        return 0, dirichlet_L(char, arg)
    raise ValueError(f"unsupported factor kind {kind!r}")


def laurent_leading(main_term: GlobalZetaExpr, s0: float) -> LaurentLeading:
    """Order and leading coefficient of a main-term expression at s0.

    The expression must carry no elementary factors (they are stripped
    from main terms); every factor argument s0 - shift must land in
    [-2, 2].  The order is the sum of the factors' bookkeeping orders and
    the coefficient the product of their leading coefficients.
    """
    if main_term.elementary:
        raise ValueError("main term still carries elementary factors; strip them first")
    total_order = 0
    coeff = 1.0
    for f in main_term.factors:
        arg = s0 - f.shift
        if not -2.0 - 1e-9 <= arg <= 2.0 + 1e-9:
            raise ValueError(f"factor argument {arg} outside the supported range [-2, 2]")
        order, lead = _factor_leading(f.kind, f.char, arg)
        total_order += f.exp * order
        coeff *= lead ** f.exp
    if not -5 <= total_order <= 5:
        raise ValueError(f"total order {total_order} outside [-5, 5]")
    return LaurentLeading(float(s0), total_order, coeff)


# ---------------------------------------------------------------------------
# the special-value table


def _table1() -> dict:
    """(order, leading coefficient) of each (surface, s0) cell of Table 1."""
    z3, pi, r2, r5 = riemann_zeta(3.0), math.pi, regulator(2), regulator(5)
    return {
        ("L0", 0): (1, -z3 / (2**10 * 3**3 * pi**2)),
        ("L0", 1): (-1, r2 / (2**5 * 3)),
        ("L0", 2): (-3, -math.sqrt(2.0) * pi**4 * r2 / (2**4 * 3**2)),
        ("L1", 0): (1, z3 / (2**7 * 3**2 * 5**2 * pi**2)),
        ("L1", 1): (-1, -r5**2 / (2**4 * 3)),
        ("L1", 2): (-2, -pi**6 * r5**2 / (2**2 * 3**3 * 5)),
        ("L2", 0): (1, -z3 / (2**4 * pi**2)),
        ("L2", 1): (-2, -1.0 / (2**2 * 3)),
        ("L2", 2): (0, -pi**4 / (2**3 * 3**2)),
    }


def verify_table1(tol: float = 1e-6) -> list[dict]:
    """Compare computed Laurent data of the main terms with the closed forms.

    One entry per (surface, s0) cell; the order must match exactly and the
    coefficient to relative tolerance `tol`.  The (L2, 2) cell is a
    regular value and is checked with order 0 (flagged in the entry).
    """
    from .globalzeta import main_term_expression
    out = []
    for (surface_id, s0), (want_order, want_coeff) in _table1().items():
        got = laurent_leading(main_term_expression(surface_id), s0)
        rel = abs(got.coefficient - want_coeff) / abs(want_coeff)
        entry = {"surface": surface_id, "s0": s0,
                 "order_expected": want_order, "order_got": got.order,
                 "coeff_expected": want_coeff, "coeff_got": got.coefficient,
                 "rel_err": rel,
                 "pass": bool(got.order == want_order and rel <= tol)}
        if (surface_id, s0) == ("L2", 2):
            entry["note"] = "treated as a regular value (order 0)"
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Mahler measure by Monte Carlo


MAHLER_POLYS = ("1+x+y+z", "1")
_MC_CHUNK = 1 << 17
# Rows per block: its two buffers take 768 KB.  10^7 samples on a 2-vCPU
# AVX-512 Xeon took 0.98 s wall at 2048 rows (more than on one thread, as
# the short numpy calls contend for the GIL), 0.35 s at 8192, 0.28 s here
# and 0.23 s at 32768, at twice the memory.
_MC_BLOCK = 16384
_MC_MAX_THREADS = 4
_TINY = sys.float_info.min  # the smallest normal double


def _torus_abs2(u, work):
    """|1 + x + y + z|^2 at x, y, z = e^(2 pi i u_k) for the rows u of `u`.

    In half angles, 1 + e^(ia) = 2 cos(a/2) e^(ia/2) and e^(ib) + e^(ic) =
    2 cos((c - b)/2) e^(i(b + c)/2), so |P|^2 = 4((A - D)^2 + 4AD cos^2(t/2))
    with A = cos(pi h), D = cos(pi d) and t = pi e, where h = u_0 - round(u_0),
    d = u_2 - u_1 and e = u_1 + u_2 - h.  With the tangents a = tan(pi h/2),
    b = tan(pi d/2) and c = tan(pi e/2), A = (1 - a^2)/(1 + a^2), D likewise
    in b, and cos^2(t/2) = 1/(1 + c^2), so

      |P|^2 = 16/((1+a^2)(1+b^2)) [(b-a)^2 (b+a)^2/((1+a^2)(1+b^2))
                                   + (1-a^2)(1-b^2)/(1+c^2)],

    one np.tan call for all three, which numpy vectorises on CPUs with
    AVX-512, while it takes each cosine from scalar libm.  Near the
    zero set the textbook form (1 + sum cos)^2 + (sum sin)^2 cancels to far
    below its terms.  Here |a| <= 1 always, and on the zero set
    |u_2 - u_1| <= 1/2, so near it |b| <= 1 up to a term of the order of
    |P|: both terms are >= 0, they do not cancel, and the result is as
    accurate as the textbook form.  `work` is a (3, rows) buffer; the
    result is its last row, and `u` is used as scratch.
    """
    import numpy as np  # already loaded by mahler_measure_mc
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]
    h, d, e = work
    np.rint(u0, out=h)
    np.subtract(u0, h, out=h)  # in [-1/2, 1/2]
    np.subtract(u2, u1, out=d)
    np.add(u1, u2, out=e)
    e -= h
    work *= 0.5 * np.pi
    np.tan(work, out=work)
    a, b, c = work
    sq = u.reshape(3, -1)  # the uniforms are spent: their buffer takes a^2, b^2, c^2
    np.multiply(work, work, out=sq)
    np.subtract(b, a, out=c)
    a += b
    c *= a  # (b - a)(b + a)
    np.subtract(1.0, sq[:2], out=work[:2])  # 1 - a^2, 1 - b^2
    sq += 1.0
    a *= b
    a /= sq[2]  # (1 - a^2)(1 - b^2)/(1 + c^2)
    sq[0] *= sq[1]  # (1 + a^2)(1 + b^2)
    c *= c
    c /= sq[0]
    c += a
    c /= sq[0]
    c *= 16.0
    return c


def _mc_chunk(seed: int, index: int, m: int) -> tuple[float, float]:
    """Sum and sum of squares of log|1 + x + y + z| over chunk `index`.

    The chunk draws its m points from SeedSequence(seed, spawn_key=(index,))
    and allocates only its own buffers, so chunks share no state.  The
    points are drawn and reduced block by block: random(out=) continues
    one PCG64 stream, so the blocks hold the same uniforms as
    random((m, 3)); _torus_abs2 takes |P|^2 from three tangents a point,
    and the log and both sums run on the block while it is in cache, so no
    array of m doubles is made.  A fresh array above glibc's mmap
    threshold is page-faulted in on first touch, one fault per 4 KB page,
    so the two block buffers are made once per chunk and reused.
    """
    import numpy as np  # already loaded by mahler_measure_mc
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    u = np.empty((min(m, _MC_BLOCK), 3))
    work = np.empty((3, len(u)))
    total = 0.0
    total_sq = 0.0
    for start in range(0, m, _MC_BLOCK):
        b = min(_MC_BLOCK, m - start)
        rng.random(out=u[:b])
        r2 = _torus_abs2(u[:b], work[:, :b])
        np.maximum(r2, _TINY, out=r2)  # the zero set has measure zero
        np.log(r2, out=r2)  # 2 log|P|: halving the sums is exact
        total += 0.5 * float(r2.sum())
        r2 *= r2
        total_sq += 0.25 * float(r2.sum())
    return total, total_sq


def mahler_measure_mc(poly_id: str, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the logarithmic Mahler measure, with stderr.

    Averages log|P| over uniform points of the unit torus.  Sampling is
    chunked; chunk i draws from SeedSequence(seed, spawn_key=(i,)).  The
    chunks run on up to four threads (never more than the CPU count or the
    number of chunks), and their sums are added in chunk order, so the
    result is bit-identical for a given seed and sample count whatever the
    thread count.  The stderr is inf for a single sample.
    """
    if poly_id not in MAHLER_POLYS:
        raise ValueError(f"unsupported polynomial id {poly_id!r}")
    if samples <= 0:
        raise ValueError("sample count must be positive")
    if poly_id == "1":
        return 0.0, 0.0
    from concurrent.futures import ThreadPoolExecutor  # deferred: only this pays its import
    import numpy  # loaded here, so no pool worker is the first to import it
    sizes = [min(_MC_CHUNK, samples - start) for start in range(0, samples, _MC_CHUNK)]
    workers = min(_MC_MAX_THREADS, os.cpu_count() or 1, len(sizes))
    total = 0.0
    total_sq = 0.0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map cancels the chunks still queued if a chunk or the caller raises
        for s, sq in pool.map(_mc_chunk, itertools.repeat(seed), range(len(sizes)), sizes):
            total += s
            total_sq += sq
    mean = total / samples
    if samples > 1:
        var = (total_sq - total * total / samples) / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = float("inf")
    return mean, stderr
