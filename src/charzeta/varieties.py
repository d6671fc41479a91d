"""Brute-force point enumeration of a surface model.

Brute-force counting (brute_totals) evaluates the model's bihomogeneous F
(see surfaces) at every point of P^2 x P^1, in canonical coordinates
(leftmost nonzero coordinate of each factor scaled to 1), in two passes
over the q + 1 base points (z : w): one over the chart (x, y, 1) of P^2 and
one over its line u = 0.  The chart over (z : 1) is the affine surface,
the chart over (1 : 0) and the line make up the non-affine rest, and the
biprojective count is their sum.  It is the ground-truth oracle the faster
counting paths are checked against.  Both passes go through one routine,
_zero_masks: F is split by its monomials in (x, y, u), each monomial is a
grid over a set of plane representatives (x : y : u) built once, and
every base point (z : w) then costs one weighted sum of those grids, with
weights the binary forms in (z, w) at that point, computed for every base
point in one vectorised step before the first fiber (_form_weights; the
scalar surfaces._zw_values is their reference).  That sum is computed
without temporaries, in cache-sized strips of each fiber through buffers
allocated once per call, because a fresh array of the grids' size costs a
page fault per 4 KB on first touch, about as much as the arithmetic.  Prime
fields add int32 residues and divide by p once per fiber; extension fields
gather from a table of packed base-p digits (of encodings at p = 2).

Only the commands that enumerate points import this module, so it imports
numpy at module scope.
"""

from __future__ import annotations

import numpy as np

from .finfield import Field, FieldError
from .surfaces import CountTotals, _as_model

MAX_AFFINE_Q = 2048  # brute_totals


def _form_weights(field: Field, form, bases) -> list[list[int]]:
    """surfaces._zw_values of the form (see surfaces._split_form) at every
    base point at once.

    Entry [b] lists the weights P_m(z : w) of the form's monomials at
    bases[b], as Python ints.  The monomials z^k w^(d-k) come from int64
    powers mod p over F_p and from the exp/log tables over F_{p^n}; the
    form's integer combinations of them are summed on their base-p digits
    and encoded once, as _zw_values does one point at a time.
    """
    p, n, m = field.p, field.n, field.q - 1
    _, lists, deg = form
    z, w = np.array(bases, dtype=np.int64).reshape(-1, 2).T
    k = np.arange(deg + 1)
    if n == 1:  # monos[b, k] = z^k w^(deg-k) at bases[b], reduced below
        zk, wk = [np.ones_like(z)], [np.ones_like(w)]
        for _ in range(deg):
            zk.append(zk[-1] * z % p)
            wk.append(wk[-1] * w % p)
        monos = np.stack([zk[i] * wk[deg - i] for i in k], axis=1)
    else:
        exp, log = field.exp_log_tables()
        zero = (z[:, None] == 0) & (k > 0) | (w[:, None] == 0) & (k < deg)
        monos = np.where(zero, 0, exp[(log[z][:, None] * k + log[w][:, None] * (deg - k)) % m])
    place = p ** np.arange(n, dtype=np.int64)
    digits = monos[:, None, :, None] // place % p              # [b, 1, k, j]
    coeffs = np.array(lists, dtype=np.int64)[None, :, :, None]  # [1, mono, k, 1]
    return ((coeffs * digits).sum(axis=2) % p * place).sum(axis=2).tolist()


# ---------------------------------------------------------------------------
# brute-force enumeration


def _affine_plane(q: int):
    """The chart (x, y, 1) of P^2(F_q) as coordinate arrays.

    They broadcast to a q x q grid, x by row and y by column, so the plane
    itself holds 2q + 1 entries; only the monomial grids reach q^2.
    """
    r = np.arange(q, dtype=np.int64)
    return r[:, None], r[None, :], np.ones((1, 1), dtype=np.int64)


def _line_plane(q: int):
    """The line u = 0 of P^2(F_q), (1 : y : 0) and (0 : 1 : 0), as coordinate arrays."""
    return (np.append(np.ones(q, dtype=np.int64), 0), np.append(np.arange(q, dtype=np.int64), 1),
            np.zeros(1, dtype=np.int64))


def _check_prime_headroom(terms: int, p: int) -> None:
    """Refuse an unreduced int32 sum of `terms` products that could overflow.

    Weights and grid values are reduced residues in [0, p), so each
    product c_m * M_m is at most (p - 1)^2 and the sum fits in int32 when
    terms * (p - 1)^2 < 2^31.  With at most six terms and p < MAX_AFFINE_Q
    the sum stays below 6 * 2047^2 < 2^25.  int32 rather than int64 halves
    the bytes each pass over the grids moves.
    """
    if terms * (p - 1) ** 2 >= 1 << 31:
        raise OverflowError(f"{terms} unreduced products mod {p} overflow int32")


def _check_packed_headroom(terms: int, p: int, n: int, s: int) -> None:
    """Refuse a sum of packed F_{p^n} elements that could carry or overflow.

    An element with base-p digits d_j is packed as sum_j d_j 2^(s j).  A
    sum of `terms` of them holds digit sums of at most terms * (p - 1),
    which stay inside their s-bit fields when below 2^s, and its n fields
    fit a non-negative int64 when n * s <= 63.
    """
    if terms * (p - 1) >= 1 << s or n * s > 63:
        raise OverflowError(f"{terms} packed sums over F_{p}^{n} do not fit {s}-bit digits")


def _monomial_grids(field: Field, plane, monos):
    """Each (x, y, u)-monomial of monos over the plane representatives.

    The coordinate arrays broadcast together; the representatives are the
    entries of their broadcast shape in row-major order.  A grid is flat,
    with one entry per representative, or of length 1 when the monomial
    reads only coordinates of length 1.  Each grid is built over the
    coordinates it reads and spread to full size once.

    Over F_p a grid holds the residues of the products, multiplied and
    reduced one factor at a time in int32, which holds the product of two
    residues for every p that _check_prime_headroom admits.  Over
    F_{p^n} it holds their discrete logs, sum_i e_i log c_i mod (q - 1),
    with the sentinel 2(q - 1) where a coordinate raised to e_i > 0 is
    zero, as int64 (np.take's index type, so a gather copies no index).
    """
    p, m = field.p, field.q - 1
    shape = np.broadcast_shapes(*(c.shape for c in plane))
    if field.n > 1:
        _, log = field.exp_log_tables()
    else:
        plane = [c.astype(np.int32) for c in plane]
    grids = []
    for mono in monos:
        if field.n == 1:
            g = np.ones(1, dtype=np.int32)
            for c, e in zip(plane, mono):
                for _ in range(e):
                    g = g * c
                    g %= p
        else:
            g, zero = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool)
            for c, e in zip(plane, mono):
                if e:
                    g, zero = g + e * log[c], zero | (c == 0)
            g %= m
            np.copyto(g, 2 * m, where=zero)
        grids.append(g.reshape(1) if g.size == 1 else np.broadcast_to(g, shape).ravel())
    return grids


_BLOCK = 1 << 15  # points per strip: its int64 buffers take 256 KB each


def _zero_masks(form, field: Field, plane, bases):
    """Yield ((z, w), mask) per base point; mask marks the zeros of form.

    plane holds the coordinates (x, y, u) of the representatives, as arrays
    that broadcast together (see _monomial_grids); the mask is flat over
    the broadcast shape in row-major order.  The form (see
    surfaces._split_form) is sum_m M_m(x, y, u) P_m(z, w): the grids M_m are
    built once, and the fiber over (z : w) weighs them by the encodings
    c_m = P_m(z : w), which _form_weights computes for every base point
    before the first fiber.

    No step allocates a full-size array.  Each fiber is evaluated in
    strips of _BLOCK points, every term and the zero test of a strip
    before the next, through an accumulator and a term buffer of one
    strip allocated once per call; every numpy call writes into them with
    out=.  A fresh array above glibc's mmap threshold is page-faulted in on
    first touch, one fault per 4 KB page, which costs about as much as the
    arithmetic on it, and a strip's buffers stay in cache while each grid
    is read once per fiber.  The mask is allocated once too, so it is the
    same array at every base point: read it before advancing the generator.

    Prime fields sum the products in int32 and test acc // p * p == acc,
    since numpy divides by a scalar by multiplying (libdivide), about twice
    as fast as %.  Extension fields multiply a log grid by c with one
    gather (np.take) from a table over three periods of the exp table
    whose last period is zero.  In characteristic 2 it holds the encodings
    and terms are added with XOR; in odd characteristic it holds the base-p
    digits packed into one int64 with s bits each, so a term is one add
    (see _check_packed_headroom), and once per base point the digits are
    tested mod p, a few at a time, by lookup in a table of bit patterns.
    """
    p, n = field.p, field.n
    terms = len(form[0])
    if n == 1:
        _check_prime_headroom(terms, p)
        dtype = np.int32
    else:
        exp, log = field.exp_log_tables()
        table = np.concatenate([exp, exp, np.zeros(len(exp), dtype=exp.dtype)])
        if p == 2:
            dtype = np.int32  # encodings stay below MAX_TABLE_Q
        else:
            dtype = np.int64
            s = (terms * (p - 1)).bit_length()
            _check_packed_headroom(terms, p, n, s)
            table = sum(table // p**j % p << s * j for j in range(n))
            # a sum's digits are tested `width` bits at a time: whole digits,
            # at most 16 bits, so the lookup table takes at most 64 KB
            width = s * max(1, min(n, 16 // s))
            ok = np.zeros(1, dtype=np.int64)
            for i in range(width // s):  # the patterns whose every digit is a multiple of p
                ok = np.add.outer(np.arange(0, 1 << s, p) << s * i, ok).ravel()
            divisible = np.zeros(1 << width, dtype=bool)
            divisible[ok] = True
            hit = np.empty(_BLOCK, dtype=bool)
        table = table.astype(dtype)
    grids = _monomial_grids(field, plane, form[0])
    acc, tmp = np.empty(_BLOCK, dtype=dtype), np.empty(_BLOCK, dtype=dtype)

    def term(c, g, out):
        if n == 1:
            np.multiply(g, c, out=out)
        elif g.size < out.size:  # a constant monomial's grid has length 1
            out.fill(table[log[c] + g[0]])
        else:  # mode "clip" never clips here; "raise" would copy through a buffer
            np.take(table[log[c]:], g, out=out, mode="clip")

    def zero_test(a, t, out):
        if n == 1:
            np.floor_divide(a, p, out=t)
            t *= p
            np.equal(t, a, out=out)
        elif p == 2:
            np.equal(a, 0, out=out)
        else:
            h = hit[:out.size]
            for shift in range(0, n * s, width):
                # numpy vectorises the logical shift of uint64, not the arithmetic one of int64
                np.right_shift(a.view(np.uint64), shift, out=t.view(np.uint64))
                np.bitwise_and(t, (1 << width) - 1, out=t)
                np.take(divisible, t, out=h if shift else out, mode="clip")
                if shift:
                    out &= h

    mask = np.empty(np.broadcast(*plane).size, dtype=bool)
    combine = np.bitwise_xor if p == 2 else np.add
    for zw, weights in zip(bases, _form_weights(field, form, bases)):
        nonzero = [(c, g) for c, g in zip(weights, grids) if c]
        if not nonzero:
            mask.fill(True)
        for lo in range(0, mask.size if nonzero else 0, _BLOCK):
            o = mask[lo:lo + _BLOCK]
            a, t = acc[:o.size], tmp[:o.size]
            for i, (c, g) in enumerate(nonzero):
                term(c, g[lo:lo + _BLOCK] if g.size > 1 else g, t if i else a)
                if i:
                    combine(a, t, out=a)
            zero_test(a, t, o)
        yield zw, mask


def _fiber_counts(model, field: Field, plane, bases) -> list[int]:
    """Zeros of F on the plane representatives over each base point."""
    return [int(np.count_nonzero(mask))
            for _, mask in _zero_masks(model._form, field, plane, bases)]


def brute_totals(model, field: Field) -> CountTotals:
    """Exact counts of V(F) in all three spaces by enumeration.

    The affine count is the chart (x, y, 1) over the bases (z : 1), the
    non-affine one the chart over (1 : 0) and the line u = 0 over all of
    P^1, and the biprojective count their sum.
    """
    model = _as_model(model)
    q = field.q
    if q > MAX_AFFINE_Q:
        raise FieldError(f"brute force limited to q <= {MAX_AFFINE_Q}")
    bases = [(z, 1) for z in range(q)] + [(1, 0)]
    chart = _fiber_counts(model, field, _affine_plane(q), bases)
    affine = sum(chart[:q])
    nonaffine = chart[q] + sum(_fiber_counts(model, field, _line_plane(q), bases))
    return CountTotals(model.id, field.p, field.n, affine + nonaffine, affine, nonaffine)
