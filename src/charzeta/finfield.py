"""Exact arithmetic in F_p and F_{p^n}, quadratic characters, and polynomial roots.

Elements of F_q, q = p^n, are encoded as integers in [0, q): the element
a0 + a1*x + ... + a_{n-1}*x^{n-1} (coefficients in [0, p)) has encoding
a0 + a1*p + ... + a_{n-1}*p^(n-1).  For n = 1 the encoding is the least
residue.  Only this module reads the digits; other modules go through
Field's methods.  _digits is the one full base-p decoder; the closed
forms at n = 2 and the digitwise add and sub split digits inline.  The
product of F_p polynomials is _poly_mul_mod, which multiplies digit
vectors and reduces by the modulus, O(n^2) digit operations; powers run
the one square-and-multiply _power; the one polynomial division
_fq_divmod with _poly_mul_mod runs the extended Euclidean algorithm that
inverts; and the quadratic character is Euler's criterion on the norm,
the product of the Frobenius conjugates a, a^p, ..., a^(p^(n-1)) whose
sum is the trace.  At n = 2, the residue field of each closed point of
degree 2 that the descent of fibercount reads, product and norm are
closed forms in the two digits: for the modulus z^2 + sz + t a product
reduces by z^2 = -sz - t, and N(x + yz) = x^2 - sxy + ty^2.  A Field is
an immutable value of p, n, q and the modulus; the discrete-log tables
that the independent count multiplies by are built in varieties.  No
part of this module uses numpy.

The extension modulus is the first irreducible monic polynomial in
ascending order of its coefficient encoding, so field construction is
deterministic and reproducible, unless the caller gives one (a residue
field F_p[z]/(f) takes f).
"""

from __future__ import annotations

import functools
import random
from itertools import zip_longest

MAX_Q = 1 << 63
MAX_EXT_DEGREE = MAX_Q.bit_length() - 1  # q = p^n <= 2^63 and p >= 2

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(ValueError):
    """Invalid field construction or an operation outside its domain."""


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for all m < 2**64."""
    if m < 2:
        return False
    for sp in _MR_WITNESSES:
        if m % sp == 0:
            return m == sp
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod the odd prime p, for a a square mod p.

    For p = 3 mod 4 it is a^((p+1)/4).  Otherwise Tonelli-Shanks: with
    p - 1 = 2^e * m, m odd, and c the least non-residue (Euler's criterion),
    x = a^((m+1)/2) has x^2 = a*b with b = a^m of order 2^i < 2^e; each step
    multiplies x by a power of c^m that lowers the order of b, until b = 1.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    m, e = p - 1, 0
    while m % 2 == 0:
        m, e = m // 2, e + 1
    c = 2
    while make_field(p).quadratic_character(c) != -1:
        c += 1
    z, x, b = pow(c, m, p), pow(a, (m + 1) // 2, p), pow(a, m, p)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2, i = b2 * b2 % p, i + 1
        t = pow(z, 1 << (e - i - 1), p)
        z, e = t * t % p, i
        x, b = x * t % p, b * z % p
    return x


def _power(a, e: int, mul, one):
    """a^e, e >= 0, by square-and-multiply under the product mul with identity one."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:  # no square after the top bit
            a = mul(a, a)
    return result


def _digits(e: int, p: int, n: int) -> list[int]:
    """The n lowest base-p digits of e, low first: the coefficients of an encoding."""
    out = []
    for _ in range(n):
        out.append(e % p)
        e //= p
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over F_p (coefficient lists, low first)

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    # reduce by the monic modulus, each coefficient mod p once it is final
    dm = len(mod) - 1
    for t in range(len(out) - 1, dm - 1, -1):
        c = out[t] % p
        if c:
            for j in range(dm):
                out[t - dm + j] -= c * mod[j]
    return _poly_trim([x % p for x in out[:dm]])


def _poly_sub_x(a, p):
    """a(x) - x as a trimmed coefficient list."""
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] = (out[1] - 1) % p
    return _poly_trim(out)


def _is_irreducible(mod, p):
    """Whether a monic polynomial of degree n >= 2 over F_p is irreducible.

    A quadratic is iff it has no root: at odd p iff its discriminant is a
    non-square, at p = 2 iff it is x^2 + x + 1.  Otherwise Ben-Or's test: f
    is reducible iff gcd(x^(p^i) - x, f) != 1 for some i <= n/2; the powers
    x^(p^i) mod f come by successive p-th powers, and the test stops at the
    first common factor, which random polynomials tend to have at small i.
    """
    prime = make_field(p)
    if len(mod) == 3:
        t, s, _ = mod
        return (t, s) == (1, 1) if p == 2 else prime.quadratic_character((s * s - 4 * t) % p) < 0
    g = [0, 1]
    for _ in range((len(mod) - 1) // 2):
        g = _fq_pow(g, p, mod, prime)
        if len(_fq_gcd(list(mod), _poly_sub_x(g, p), prime)) != 1:
            return False
    return True


def first_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First irreducible monic degree-n polynomial over F_p.

    Candidates x^n + c are ordered by the base-p encoding of the lower
    coefficient vector c, so the choice is deterministic.  The first p of
    them are the binomials x^n + c, and none is irreducible unless every
    prime factor of n divides p - 1, that is n | (p - 1)^n as n < 2^n, and
    p = 1 mod 4 when 4 | n (Lidl-Niederreiter, Finite Fields, Thm 3.75):
    otherwise the scan starts past them.
    """
    binomials = pow(p - 1, n, n) == 0 and (n % 4 or p % 4 == 1)
    for enc in range(0 if binomials else p, p**n):
        mod = _digits(enc, p, n) + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class Field:
    """Descriptor of the finite field F_q with q = p^n (see module docstring).

    Instances are immutable after construction.
    """

    def __init__(self, p: int, n: int = 1, modulus=None):
        """modulus, for n >= 2 only, is a monic irreducible polynomial of
        degree n over F_p (coefficients in [0, p), low first); it defaults
        to first_irreducible(p, n).  Above F_p, p is proved prime once, by
        the cached make_field(p): the descent builds a residue field for
        each closed point of degree 2 at every prime."""
        if n == 1 or p > MAX_Q:
            if not is_prime(p):
                raise FieldError(f"{p} is not prime")
        else:
            make_field(p)
        if not 1 <= n <= MAX_EXT_DEGREE:
            raise FieldError(f"extension degree {n} outside 1..{MAX_EXT_DEGREE}")
        q = p**n
        if q > MAX_Q:
            raise FieldError(f"field size {p}^{n} exceeds 2^63")
        if modulus is not None:
            modulus = tuple(modulus)
            if not (n > 1 and len(modulus) == n + 1 and modulus[-1] == 1
                    and all(0 <= c < p for c in modulus) and _is_irreducible(modulus, p)):
                raise FieldError(f"{modulus} is not a monic irreducible modulus of degree {n} "
                                 f"over F_{p}")
        elif n > 1:
            modulus = first_irreducible(p, n)
        self.p = p
        self.n = n
        self.q = q
        self.modulus = modulus

    # -- identity ------------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, n={self.n}, modulus={self.modulus})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.n, self.modulus) == (
            other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def to_json(self):
        return {"p": self.p, "n": self.n,
                "modulus": list(self.modulus) if self.modulus else None}

    # -- encoding helpers ----------------------------------------------

    def coeffs(self, a: int) -> list[int]:
        return _digits(a, self.p, self.n)

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + c % self.p
        return e

    # -- scalar arithmetic on encodings --------------------------------

    def int_(self, k: int) -> int:
        """Encoding of the integer k (a prime-subfield constant)."""
        return k % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.n == 1 else self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.n == 1 else self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b at n >= 2, digit by digit mod p (XOR in characteristic 2)."""
        p = self.p
        if p == 2:
            return a ^ b
        out, pk = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * pk
            pk *= p
        return out

    def mul(self, a: int, b: int) -> int:
        """Schoolbook product of the digit vectors, reduced by the modulus;
        at n = 2, (a0 + a1 z)(b0 + b1 z) with z^2 = -sz - t for the modulus
        z^2 + sz + t."""
        p = self.p
        if self.n == 1:
            return a * b % p
        if self.n == 2:
            (a1, a0), (b1, b0), (t, s, _) = divmod(a, p), divmod(b, p), self.modulus
            return (a0 * b0 - t * a1 * b1) % p + (a0 * b1 + a1 * b0 - s * a1 * b1) % p * p
        return self.encode(_poly_mul_mod(self.coeffs(a), self.coeffs(b), self.modulus, p))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return pow(a, e, self.p) if self.n == 1 else _power(a, e, self.mul, 1)

    def inv(self, a: int) -> int:
        """Inverse by the extended Euclidean algorithm against the modulus.

        The Bezout cofactor s of s*a + t*modulus = c, a nonzero constant,
        gives a^-1 = s/c; each step is one division and one product over F_p.
        """
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        p = self.p
        if self.n == 1:
            return pow(a, -1, p)
        prime = make_field(p)
        r0, r1 = list(self.modulus), _poly_trim(self.coeffs(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quot, rem = _fq_divmod(r0, r1, prime)
            # deg(quot * s1) = n - deg r1 < n, so the modulus reduces nothing
            prod = _poly_mul_mod(quot, s1, self.modulus, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim([(x - y) % p for x, y in zip_longest(s0, prod, fillvalue=0)])
        c = pow(r1[0], -1, p)
        return self.encode([c * x for x in s1])

    def norm(self, a: int) -> int:
        """N(a) = a^((q-1)/(p-1)) in F_p, the product of the conjugates
        a * a^p * ... * a^(p^(n-1)); at n = 2, N(x + yz) = x^2 - sxy + ty^2."""
        p = self.p
        if self.n == 1:
            return a
        if self.n == 2:
            (y, x), (t, s, _) = divmod(a, p), self.modulus
            return (x * x - s * x * y + t * y * y) % p
        return functools.reduce(self.mul, self._conjugates(a))

    def quadratic_character(self, a: int) -> int:
        """0 for a = 0, +1 for nonzero squares, -1 otherwise (odd char only).

        chi_q(a) = a^((q-1)/2) = N(a)^((p-1)/2), the Legendre symbol of the
        norm, so the exponentiation happens in F_p.
        """
        if self.p == 2:
            raise FieldError("quadratic character is undefined in characteristic 2")
        if a == 0:
            return 0
        return 1 if pow(self.norm(a), (self.p - 1) // 2, self.p) == 1 else -1

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(n-1)), an element of F_p."""
        return functools.reduce(self.add, self._conjugates(a))

    def _conjugates(self, a: int):
        """The Frobenius conjugates a, a^p, ..., a^(p^(n-1)) of a."""
        yield a
        for _ in range(self.n - 1):
            a = self.pow_(a, self.p)
            yield a


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int = 1) -> Field:
    """Construct (and cache) the field F_{p^n}."""
    return Field(p, n)


# ---------------------------------------------------------------------------
# roots of integer polynomials in F_q (coefficient lists of encodings)
#
# These helpers work through Field methods, except that over F_p products
# go to the integer-only _poly_mul_mod above.


def _fq_divmod(a, m, field: Field):
    """Quotient and remainder of a by the trimmed nonzero polynomial m."""
    rem = list(a)
    dm, lead_inv = len(m) - 1, field.inv(m[-1])
    quot = [0] * max(len(rem) - dm, 0)
    for t in range(len(rem) - 1, dm - 1, -1):
        c = field.mul(rem[t], lead_inv)
        if c:
            quot[t - dm] = c
            for j in range(dm):
                rem[t - dm + j] = field.sub(rem[t - dm + j], field.mul(c, m[j]))
    return _poly_trim(quot), _poly_trim(rem[:dm])


def _fq_monic(a, field: Field):
    inv = field.inv(a[-1])
    return [field.mul(inv, c) for c in a]


def _fq_mul_mod(a, b, m, field: Field):
    if field.n == 1:
        return _poly_mul_mod(a, b, m, field.p)
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _fq_divmod(out, m, field)[1]


def _fq_pow(a, e: int, m, field: Field):
    """a^e mod the monic polynomial m."""
    return _power(a, e, functools.partial(_fq_mul_mod, m=m, field=field), [1])


def _fq_gcd(a, b, field: Field):
    """Monic gcd of a nonzero a and any b."""
    a = _fq_monic(a, field)
    while b:
        b = _fq_monic(b, field)
        a, b = b, _fq_divmod(a, b, field)[1]
    return a


def _fq_splitter(f, delta: int, field: Field, q: int):
    """Cantor-Zassenhaus splitting polynomial mod f for roots in F_q, q a power of field.q.

    Odd q: (z + delta)^((q-1)/2) - 1, zero where z + delta is a nonzero
    square.  Even q: the absolute trace of delta*z, zero where it is 0.
    """
    if field.p == 2:
        cur = total = _poly_trim([0, delta])
        for _ in range(q.bit_length() - 2):
            cur = _fq_mul_mod(cur, cur, f, field)
            total = [field.add(x, y) for x, y in zip_longest(total, cur, fillvalue=0)]
        return _poly_trim(total)
    result = _fq_pow([delta, 1], (q - 1) // 2, f, field) or [0]
    return _poly_trim([field.sub(result[0], 1)] + result[1:])


def _factors(f, field: Field, d: int):
    """The irreducible factors over field of f, a monic product of distinct
    irreducible factors of degree d, by Cantor-Zassenhaus with random
    choices seeded by the field and d, so that every run takes the same path."""
    rng = random.Random(f"{field.p}:{field.n}:{d}")

    def split(f):
        if len(f) <= d + 1:
            return [f] if len(f) > 1 else []
        while True:
            g = _fq_splitter(f, rng.randrange(field.q), field, field.q**d)
            if g:
                g = _fq_gcd(f, g, field)
                if 1 < len(g) < len(f):
                    return split(g) + split(_fq_divmod(f, g, field)[0])

    return split(list(f))


def split_roots(f, field: Field) -> list[int]:
    """Encodings of the roots of f, a monic product of distinct linear
    factors over F_q, sorted."""
    return sorted(field.neg(g[0]) for g in _factors(f, field, 1))


def low_degree_factors(coeffs, p: int):
    """(roots in F_p, irreducible quadratic factors) of an integer polynomial mod p.

    Raises FieldError when the polynomial vanishes mod p or has a root
    outside F_{p^2}: some factor of it does not divide gcd(g, z^(p^2) - z).
    """
    prime = make_field(p)
    g = _poly_trim([c % p for c in coeffs])
    if not g:
        raise FieldError(f"the polynomial vanishes identically mod {p}")
    g = _fq_monic(g, prime)
    frob = _fq_pow([0, 1], p, g, prime)
    frob2 = []  # z^(p^2) = frob(frob) mod g, as the Frobenius is a ring map
    for c in reversed(frob):
        frob2 = _poly_mul_mod(frob2, frob, g, p) or [0]
        frob2[0] = (frob2[0] + c) % p
    h, rest = _fq_gcd(g, _poly_sub_x(frob2, p), prime), g
    while len(common := _fq_gcd(rest, h, prime)) > 1:
        rest = _fq_divmod(rest, common, prime)[0]
    if len(rest) > 1:
        raise FieldError(f"the polynomial has roots outside F_{p}^2")
    linear = _fq_gcd(h, _poly_sub_x(_fq_divmod(frob, h, prime)[1], p), prime)
    return split_roots(linear, prime), _factors(_fq_divmod(h, linear, prime)[0], prime, 2)
