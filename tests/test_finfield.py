"""Field arithmetic, quadratic characters, conic point counts, and polynomial roots."""

import ast
import functools
import itertools
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charzeta import FieldError, finfield, is_prime, make_field, surface
from charzeta.fibercount import _closed_points
from charzeta.finfield import (MAX_Q, Field, _fq_divmod, _fq_pow, _is_irreducible,
                               _poly_mul_mod, first_irreducible, low_degree_factors, split_roots,
                               sqrt_mod)
from conftest import (_is_irreducible_rabin, conic_count_brute, fiber_conic, fiber_determinant,
                      field_roots, first_irreducible_rabin, schoolbook_mul)


def test_make_field_prime():
    f = make_field(2, 1)
    assert (f.p, f.n, f.q) == (2, 1, 2)
    assert f.modulus is None


def test_make_field_f4_modulus():
    # the only monic irreducible quadratic over F_2
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)


def test_fields_with_different_moduli_differ():
    default = make_field(5, 2)
    assert default.modulus == (2, 0, 1)  # z^2 + 2, the first irreducible
    other = Field(5, 2, modulus=(2, 1, 1))  # z^2 + z + 2
    assert other != default and hash(other) != hash(default)
    assert Field(5, 2, modulus=(2, 0, 1)) == default
    assert hash(Field(5, 2, modulus=(2, 0, 1))) == hash(default)
    # in F_5[z]/(z^2 + z + 2) the class of z is a root of the modulus
    z = other.encode([0, 1])
    assert other.add(other.add(other.mul(z, z), z), 2) == 0


@pytest.mark.parametrize("p,n,modulus", [(5, 2, (1, 0, 1)),     # (z - 2)(z + 2)
                                         (5, 2, (2, 0, 2)),     # not monic
                                         (5, 2, (7, 0, 1)),     # coefficient beyond p
                                         (5, 3, (2, 0, 1)),     # degree below n
                                         (5, 1, (2, 1))])       # no modulus at n = 1
def test_field_rejects_bad_moduli(p, n, modulus):
    with pytest.raises(FieldError):
        Field(p, n, modulus=modulus)


def test_make_field_rejects_nonprime():
    # above F_p the primality of p comes from make_field(p), with the same error
    for p, n in [(4, 1), (9, 2), (1, 2), (15, 4)]:
        with pytest.raises(FieldError, match=f"^{p} is not prime$"):
            make_field(p, n)


def test_make_field_rejects_bad_degree():
    with pytest.raises(FieldError):
        make_field(2, 0)
    for n in (64, 10**9):  # n <= 63 follows from q <= 2^63; p^n is never formed
        with pytest.raises(FieldError, match="extension degree"):
            make_field(2, n)
    with pytest.raises(FieldError, match="exceeds 2"):
        make_field(3, 40)


def test_modulus_is_irreducible_exhaustive():
    # no root in F_p is enough for degrees 2 and 3
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = make_field(p, n)
        mod = f.modulus
        for r in range(p):
            val = sum(c * r**i for i, c in enumerate(mod)) % p
            assert val != 0, (p, n, mod, r)


@pytest.mark.parametrize("p,max_n", [(2, 6), (3, 5), (5, 4)])
def test_ben_or_matches_rabin_exhaustive(p, max_n):
    for n in range(2, max_n + 1):
        for enc in range(p**n):
            mod = [enc // p**i % p for i in range(n)] + [1]
            assert _is_irreducible(mod, p) == _is_irreducible_rabin(mod, p), mod


def test_quadratic_irreducibility_matches_rabin():
    # a quadratic is decided by its roots, not by Ben-Or's powering: every
    # monic quadratic for p < 60, and seeded samples near 10^6 and 2^31,
    # where a random quadratic is irreducible about half the time
    for p in filter(is_prime, range(60)):
        for t, s in itertools.product(range(p), repeat=2):
            assert _is_irreducible([t, s, 1], p) == _is_irreducible_rabin([t, s, 1], p), (p, t, s)
    rng = random.Random(31)
    for p in (999983, 1000003, 2147483647, 2147483659):
        verdicts = []
        for _ in range(40):
            mod = [rng.randrange(p), rng.randrange(p), 1]
            verdicts.append(_is_irreducible(mod, p))
            assert verdicts[-1] == _is_irreducible_rabin(mod, p), (p, mod)
        assert 0 < sum(verdicts) < 40, p


def test_first_irreducible_matches_rabin():
    # every field with p <= 13 and p^n <= 10^6 gets the modulus Rabin's test
    # picks, and so do larger fields where no binomial x^n + c is
    # irreducible, so the scan starts past them: 3 or 5 does not divide
    # p - 1, or 4 | n and p = 3 mod 4
    small = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 20) if p**n <= 10**6]
    for p, n in small + [(101, 3), (1013, 3), (103, 4), (1019, 4), (17, 5), (43, 5)]:
        assert first_irreducible(p, n) == first_irreducible_rabin(p, n), (p, n)


def test_first_irreducible_starts_past_binomials_that_cannot_be_irreducible(monkeypatch):
    # the first candidate tested is x^n + x, encoding p, when a prime factor
    # of n does not divide p - 1 or 4 | n and p = 3 mod 4, and x^n otherwise
    tested = []
    is_irreducible = finfield._is_irreducible
    monkeypatch.setattr(finfield, "_is_irreducible",
                        lambda mod, p: tested.append(mod) or is_irreducible(mod, p))
    for p, n, skip in [(101, 3, True), (103, 4, True), (17, 5, True), (2, 6, True),
                       (7, 3, False), (13, 4, False), (11, 5, False), (5, 2, False)]:
        tested.clear()
        first_irreducible(p, n)
        assert tested[0] == [0, int(skip)] + [0] * (n - 2) + [1], (p, n)


def test_residue_fields_prove_p_prime_once(monkeypatch):
    # the descent builds F_p[z]/(f) for each closed point of degree 2 (L1
    # has two at p = 103); with make_field's cache empty, F_p proves p prime
    # once for both of them
    quadratics = _closed_points(surface("L1"), 103)[1]
    assert len(quadratics) == 2
    calls = []

    def counting_is_prime(m):
        calls.append(m)
        return is_prime(m)

    monkeypatch.setattr(finfield, "is_prime", counting_is_prime)
    monkeypatch.setattr(finfield, "make_field",
                        functools.lru_cache(maxsize=None)(finfield.make_field.__wrapped__))
    residues = [Field(103, 2, modulus=f) for f in quadratics]
    assert calls == [103]
    assert [r.modulus for r in residues] == [tuple(f) for f in quadratics]


def test_inverse_in_f5():
    f5 = make_field(5)
    assert f5.inv(2) == 3


def test_extension_multiplication_reduces():
    f4 = make_field(2, 2)
    assert f4.mul(2, 2) == 3  # x^2 = x + 1


def test_fermat_in_f7():
    f7 = make_field(7)
    assert f7.pow_(3, 6) == 1


def test_inversion_of_zero_raises():
    f5 = make_field(5)
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 1), (2, 3), (13, 1), (3, 3)])
def test_field_axioms_random(p, n):
    f = make_field(p, n)
    rng = random.Random(1234 + p * 100 + n)
    for _ in range(200):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2),
                                 (31, 2), (2, 1), (1021, 1)])
def test_frobenius_fixes_every_element(p, n):
    f = make_field(p, n)
    assert all(f.pow_(a, f.q) == a for a in range(f.q))


def test_quadratic_character_examples():
    assert make_field(7).quadratic_character(2) == 1     # 2^3 = 8 = 1 mod 7
    assert make_field(3).quadratic_character(2) == -1    # 2^1 = -1 mod 3
    assert make_field(3, 2).quadratic_character(2) == 1  # nonresidues become squares


def test_quadratic_character_char2_raises():
    with pytest.raises(FieldError):
        make_field(2).quadratic_character(1)
    # the fiber rule asks for no character in characteristic 2: (x + y + u)^2
    assert fiber_conic(make_field(2, 2), 1, 0, 1) == (5, True)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (13, 1)])
def test_quadratic_character_multiplicative(p, n):
    f = make_field(p, n)
    chi = f.quadratic_character
    for a in range(1, f.q):
        for b in range(1, f.q):
            assert chi(f.mul(a, b)) == chi(a) * chi(b)
    assert sum(chi(a) for a in range(1, f.q)) == 0


def test_prime_nonresidues_are_squares_upstairs():
    for p in (3, 5, 7, 11):
        fp = make_field(p)
        fp2 = make_field(p, 2)
        for a in range(1, p):
            if fp.quadratic_character(a) == -1:
                assert fp2.quadratic_character(a) == 1


def test_sqrt_mod_of_every_square():
    for p in (p for p in range(3, 600) if is_prime(p)):
        for n in {x * x % p for x in range(1, p)}:
            assert sqrt_mod(n, p) ** 2 % p == n, (p, n)
    # 998244353 = 119 * 2^23 + 1 runs the Tonelli-Shanks loop deep, deepest
    # at 9 as 3 generates its unit group; 2^61 - 1 = 3 mod 4 takes one power
    for p in (998244353, 2**61 - 1):
        rng = random.Random(p)
        for n in [9] + [rng.randrange(1, p) ** 2 % p for _ in range(200)]:
            assert sqrt_mod(n, p) ** 2 % p == n, (p, n)


def test_classify_conic_examples():
    f3 = make_field(3)
    assert fiber_conic(f3, 0, 1, 0) == (7, True)     # xy, split line pair
    assert fiber_conic(f3, 1, 0, 0) == (1, True)     # x^2 + y^2, conjugate pair
    assert fiber_conic(f3, 1, 2, 2) == (7, True)     # (x + y)^2 - u^2, split
    assert fiber_conic(f3, 1, 2, 1) == (1, True)     # (x + y)^2 + u^2, conjugate
    smooth = (1, 0, 2)                                     # x^2 + y^2 - u^2
    assert fiber_conic(f3, *smooth) == (4, False)
    assert fiber_determinant(f3, *smooth) != 0


def test_classify_conic_rank_extremes():
    f5 = make_field(5)
    assert fiber_conic(f5, 0, 0, 0) == (31, True)    # the zero form: all of P^2
    assert fiber_conic(f5, 0, 0, 1) == (6, True)     # u^2, double line
    assert fiber_conic(f5, 1, 2, 0) == (6, True)     # (x + y)^2, double line


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1)])
def test_classify_conic_vs_enumeration(p, n):
    # every fiber-shaped form over a prime field is one of the five kinds of
    # plane conic, with the count enumeration finds; extension fields are
    # covered by tests/test_fibercount.py::test_conic_rule_vs_enumeration
    field = make_field(p, n)
    q = field.q
    kinds = {(q + 1, False), (1, True), (q + 1, True), (2 * q + 1, True), (q * q + q + 1, True)}
    for a, b, c in itertools.product(range(q), repeat=3):
        form = (a, a, c, b, 0, 0)
        count, degenerate = fiber_conic(field, a, b, c)
        assert (count, degenerate) in kinds, form
        assert count == conic_count_brute(field, form), form


_PRIME_FIELDS = [(p, 1) for p in range(2, 730) if is_prime(p)]
_EXT_FIELDS = [(p, n) for p in range(2, 28) if is_prime(p)
               for n in range(2, 10) if p**n <= 729]


def _eval_int_poly(field, coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, z), field.int_(c))
    return acc


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(_PRIME_FIELDS), st.sampled_from(_EXT_FIELDS)),
       st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4), min_size=1, max_size=4))
def test_field_roots_match_enumeration(pn, factors):
    # products of small factors of degree <= 3, so that factors irreducible
    # over F_p with roots only in F_q show up often; total degree <= 10
    field = make_field(*pn)
    g = [1]
    for f in factors:
        if len(g) + len(f) <= 12:
            g = [sum(g[i] * f[k - i] for i in range(len(g)) if 0 <= k - i < len(f))
                 for k in range(len(g) + len(f) - 1)]
    if not any(c % field.p for c in g):
        with pytest.raises(FieldError):
            field_roots(g, field)
        return
    expected = [z for z in range(field.q) if _eval_int_poly(field, g, z) == 0]
    assert field_roots(g, field) == expected


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.sampled_from([p for p in range(2, 24) if is_prime(p)]),
       st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4), min_size=1, max_size=3))
def test_low_degree_factors_match_enumeration(p, factors):
    # a product of factors of degree <= 3 has a root outside F_{p^2} exactly
    # when one of them is a cubic without roots mod p
    g = [1]
    for f in factors:
        g = [sum(g[i] * f[k - i] for i in range(len(g)) if 0 <= k - i < len(f))
             for k in range(len(g) + len(f) - 1)]
    prime = make_field(p)
    reduced = [[c % p for c in f] for f in factors]
    if not all(any(f) for f in reduced) or any(
            f[-1] and all(_eval_int_poly(prime, f, z) for z in range(p))
            for f in reduced if len(f) == 4):
        with pytest.raises(FieldError):
            low_degree_factors(g, p)
        return
    roots, quadratics = low_degree_factors(g, p)
    assert roots == [z for z in range(p) if _eval_int_poly(prime, g, z) == 0]
    field = make_field(p, 2)
    pairs = [split_roots(f, field) for f in quadratics]
    assert all(len(pair) == 2 and min(pair) >= p for pair in pairs)  # irreducible
    expected = [z for z in range(p, field.q) if _eval_int_poly(field, g, z) == 0]
    assert sorted(z for pair in pairs for z in pair) == expected


# largest prime p with p^2 <= 2^63
_P63 = 3037000493
_KERNEL_PRIMES = (2, 3, 5, 7, 13, 101, 65521, _P63)
_KERNEL_MAX_DEGREE = 24  # keeps field construction cheap (3^39 takes seconds)


def _max_degree(p):
    n = 1
    while n < _KERNEL_MAX_DEGREE and p ** (n + 1) <= MAX_Q:
        n += 1
    return n


_KERNEL_FIELDS = st.sampled_from(_KERNEL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, _max_degree(p))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_KERNEL_FIELDS, st.integers(0, MAX_Q), st.integers(0, MAX_Q))
@example((5, 3), 99, 99)  # 99 = 4 + 4*5 + 3*5^2: large digits in every place
@example((2, 24), 2**23 + 12345, 2**24 - 1)
@example((3, 24), 3**23 + 1, 2)
@example((_P63, 2), _P63 * 17 + 5, _P63**2 - 1)
def test_scalar_kernels_match_exponentiation_and_schoolbook(pn, a, b):
    field = make_field(*pn)
    p, q = field.p, field.q
    a, b = a % q, b % q
    assert field.mul(a, b) == schoolbook_mul(field, a, b)
    assert field.sub(a, b) == field.add(a, field.neg(b))
    assert field.add(field.sub(a, b), b) == a
    assert field.norm(a) == field.pow_(a, (q - 1) // (p - 1))
    if a:
        inv = field.inv(a)
        assert inv == field.pow_(a, q - 2)
        assert field.mul(a, inv) == 1
    if p != 2:
        euler = field.pow_(a, (q - 1) // 2)  # Euler's criterion
        assert field.quadratic_character(a) == {0: 0, 1: 1, field.neg(1): -1}[euler]


def _schoolbook_pow(field, a, e):
    result = 1
    while e:
        if e & 1:
            result = schoolbook_mul(field, result, a)
        a, e = schoolbook_mul(field, a, a), e >> 1
    return result


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13, 101, 65521, _P63)), st.booleans(),
       st.integers(0, MAX_Q), st.integers(0, MAX_Q), st.integers(0, MAX_Q), st.integers(0, MAX_Q))
@example(2, False, 1, 1, 3, 2)  # z^2 + z + 1, the one irreducible quadratic over F_2
@example(_P63, True, 0, 0, _P63**2 - 1, _P63 * 17 + 5)
def test_quadratic_closed_forms_match_the_generic_path(p, first, t, s, a, b):
    # F_{p^2} for first_irreducible(p, 2) or a random monic z^2 + sz + t: the
    # modulus check against Rabin's test, the closed-form product against
    # the schoolbook product that serves n >= 3, the closed-form norm
    # against N(a) = a^((p^2-1)/(p-1)) = a^(p+1), and the character and the
    # Euclidean inverse against Euler's criterion and
    # conj(x + yz) / N(x + yz) = (x - sy - yz) / (x^2 - sxy + ty^2)
    modulus = first_irreducible(p, 2) if first else (t % p, s % p, 1)
    if not _is_irreducible_rabin(list(modulus), p):
        assert not _is_irreducible(list(modulus), p)
        with pytest.raises(FieldError):
            Field(p, 2, modulus=modulus)
        return
    assert _is_irreducible(list(modulus), p)
    field = Field(p, 2, modulus=modulus)
    q, (t, s, _) = field.q, modulus
    a, b = a % q, b % q
    assert field.mul(a, b) == field.encode(_poly_mul_mod(field.coeffs(a), field.coeffs(b),
                                                         modulus, p))
    assert field.mul(a, b) == schoolbook_mul(field, a, b)
    assert field.norm(a) == field.pow_(a, p + 1)
    if a:
        (y, x), norm_inv = divmod(a, p), pow(field.norm(a), -1, p)
        assert field.inv(a) == field.encode([(x - s * y) * norm_inv, -y * norm_inv])
        assert schoolbook_mul(field, a, field.inv(a)) == 1
    if p != 2:
        euler = _schoolbook_pow(field, a, (q - 1) // 2)
        assert field.quadratic_character(a) == {0: 0, 1: 1, p - 1: -1}[euler]


@pytest.mark.parametrize("p,n", [(7, 1), (_P63, 1), (2, 2), (101, 2), (2, 10), (3, 5),
                                 (65521, 3)])
def test_pow_at_exponent_zero_and_below(p, n):
    # e = 0 gives 1, also at a = 0, and e < 0 powers the inverse: checked
    # by the schoolbook oracle, which shares no square-and-multiply with pow_
    field = make_field(p, n)
    rng = random.Random(f"{p}:{n}")
    assert field.pow_(0, 0) == 1
    for a in [1, field.q - 1] + [rng.randrange(1, field.q) for _ in range(5)]:
        assert field.pow_(a, 0) == 1
        inv = field.inv(a)
        assert schoolbook_mul(field, a, inv) == 1
        for e in (1, 2, 7, field.q - 2):
            assert field.pow_(a, -e) == _schoolbook_pow(field, inv, e)
    with pytest.raises(ZeroDivisionError):
        field.pow_(0, -1)


@pytest.mark.parametrize("p,n", [(2, 1), (101, 1), (3, 3), (101, 2)])
def test_polynomial_power_at_exponent_zero_is_one(p, n):
    field = make_field(p, n)
    for a in ([], [0, 1], [field.q - 1, 2, 1]):
        assert _fq_pow(a, 0, [1, 1, 0, 1], field) == [1]


@pytest.mark.parametrize("e", [0, 1, 2, 3, 8, 255, 256, 2**40 + 3])
def test_power_makes_no_unread_product(e):
    # one square per bit below the top bit and one product per set bit:
    # nothing squares a after the top bit, where no later step reads it
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y % 1009

    assert finfield._power(5, e, mul, 1) == pow(5, e, 1009)
    assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")


_WIDEST_FIELDS = ((2, 63, None), (3, 39, None), (103, 2, (102, 1, 1)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(_WIDEST_FIELDS), st.integers(0, MAX_Q))
@example((103, 2, (102, 1, 1)), 103)  # z in F_103[z]/(z^2 + z - 1)
@example((103, 2, (102, 1, 1)), 103 * 102 + 1)
@example((2, 63, None), 2**63 - 1)  # every digit 1
@example((3, 39, None), 3**39 - 1)  # every digit 2
def test_inverse_over_the_widest_fields(spec, a):
    # the Euclidean inverse against schoolbook_mul where the cofactor
    # products come nearest the modulus degree: n = 63 and 39 at q near
    # 2^63, and a residue field F_p[z]/(f) with f other than first_irreducible
    p, n, modulus = spec
    field = make_field(p, n) if modulus is None else Field(p, n, modulus=modulus)
    a = a % field.q or 1
    assert schoolbook_mul(field, a, field.inv(a)) == 1


_DIVISION_FIELDS = ((2, 1), (3, 1), (101, 1), (65521, 1), (2, 5), (3, 3), (101, 2))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.sampled_from(_DIVISION_FIELDS), st.lists(st.integers(0, MAX_Q), max_size=9),
       st.lists(st.integers(0, MAX_Q), max_size=4), st.integers(0, MAX_Q))
@example((3, 3), [5], [1, 2, 7], 0)  # deg a < deg b
@example((101, 1), [], [3], 98)  # a = 0, a constant divisor
def test_division_by_a_non_monic_polynomial(pn, a, b, lead):
    # _fq_divmod(a, b) against products by schoolbook_mul: a trimmed
    # quotient and a trimmed remainder shorter than b with
    # quot * b + rem = a, for a divisor whose leading coefficient is not 1
    # (F_2 has no other)
    field = make_field(*pn)
    q = field.q
    a = [x % q for x in a]
    while a and a[-1] == 0:
        a.pop()
    b = [x % q for x in b] + [lead % (q - 2) + 2 if q > 2 else 1]
    quot, rem = _fq_divmod(a, b, field)
    assert (quot == [] or quot[-1] != 0) and (rem == [] or rem[-1] != 0)
    assert len(rem) < len(b)
    total = rem + [0] * (len(quot) + len(b))
    for i, qi in enumerate(quot):
        for j, bj in enumerate(b):
            total[i + j] = field.add(total[i + j], schoolbook_mul(field, qi, bj))
    assert total[:len(a)] == a and not any(total[len(a):])


def test_only_finfield_reads_the_digit_encoding():
    # a field element's base-p digits are finfield's decision: no other
    # module of the package calls coeffs, encode or _digitwise
    package = pathlib.Path(finfield.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.name == "finfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("coeffs", "encode", "_digitwise")):
                calls.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert calls == []
