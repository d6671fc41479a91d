"""Numerics: zeta, L-functions, regulators, Laurent data, Mahler measure."""

import concurrent.futures
import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charzeta import (CHI5, CHI8, dirichlet_L, hurwitz_zeta_deflated,
                      laurent_leading, mahler_measure_mc, main_term_expression,
                      regulator, riemann_zeta, verify_table1)
from charzeta import specialvalues
from charzeta.specialvalues import (_MC_BLOCK, _MC_CHUNK, QUAD_FIELD_DATA, _mc_chunk,
                                    _torus_abs2)
from conftest import mahler_chunks_serial, mahler_mc_serial, run_fresh

mpmath.mp.dps = 30


def mp_dirichlet_L(char, s):
    """Independent high-precision oracle via mpmath's Hurwitz zeta."""
    m = char.modulus
    if abs(s - 1) < 1e-12:
        return float(-sum(char(r) * mpmath.digamma(mpmath.mpf(r) / m)
                          for r in range(1, m)) / m)
    tot = sum(char(r) * mpmath.zeta(s, mpmath.mpf(r) / m)
              for r in range(1, m) if char(r))
    return float(m ** (-mpmath.mpf(s)) * tot)


def test_zeta_classical_values():
    assert riemann_zeta(0) == -0.5
    assert abs(riemann_zeta(-1) + 1.0 / 12.0) < 1e-12
    assert abs(riemann_zeta(-2)) < 1e-8


def test_zeta_at_3_against_direct_series():
    direct = sum(1.0 / k**3 for k in range(1, 200000))
    tail = 1.0 / (2 * 199999**2)  # integral bound for the remainder
    assert abs(riemann_zeta(3) - (direct + tail)) < 1e-9
    assert abs(riemann_zeta(3) - 1.2020569032) < 1e-10


def test_zeta_against_mpmath_across_range():
    for s in (-3, -2.5, -1.5, -0.75, -0.25, 0.25, 0.5, 0.75, 1.5, 2, 2.5, 3, 4):
        want = float(mpmath.zeta(s))
        got = riemann_zeta(s)
        if abs(want) > 1e-12:
            assert abs(got - want) / abs(want) < 1e-10, s
        else:
            assert abs(got - want) < 1e-12, s


def test_zeta_pole_guard():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(1.0005)
    with pytest.raises(ValueError):
        riemann_zeta(5.0)
    # the contract boundary itself evaluates
    riemann_zeta(1.001)
    riemann_zeta(0.999)


def test_zeta_residue_at_one():
    eps = 1e-3
    sym = (eps * riemann_zeta(1 + eps) + (-eps) * riemann_zeta(1 - eps)) / 2
    assert abs(sym - 1.0) < 1e-5


def test_hurwitz_deflated_against_mpmath():
    for s in (-3, -1.5, 0.25, 1.0, 2.5, 4):
        for den, num in ((8, 1), (8, 5), (5, 2), (3, 1)):
            got = hurwitz_zeta_deflated(s, num / den)
            if abs(s - 1) < 1e-12:
                want = float(-mpmath.digamma(mpmath.mpf(num) / den))
            else:
                want = float(mpmath.zeta(s, mpmath.mpf(num) / den) - 1 / (mpmath.mpf(s) - 1))
            assert abs(got - want) / max(abs(want), 1.0) < 1e-10, (s, num, den)


def test_dirichlet_L_matches_mpmath():
    for char in (CHI8, CHI5):
        for s in (-3, -2.25, -1, -0.5, 0.5, 1, 1.5, 2, 3, 4):
            got = dirichlet_L(char, s)
            want = mp_dirichlet_L(char, s)
            if abs(want) > 1e-8:
                assert abs(got - want) / abs(want) < 1e-9, (char.label, s)
            else:
                assert abs(got - want) < 1e-9, (char.label, s)


def test_L_chi8_at_one_class_number_formula():
    want = math.log(1 + math.sqrt(2)) / math.sqrt(2)
    assert abs(dirichlet_L(CHI8, 1) - want) < 1e-10
    # direct conditionally-convergent summation as a second, cruder oracle
    direct = sum(CHI8(n) / n for n in range(1, 80001))
    assert abs(dirichlet_L(CHI8, 1) - direct) < 1e-4


def test_L_trivial_zeros():
    assert abs(dirichlet_L(CHI5, 0)) < 1e-8
    assert abs(dirichlet_L(CHI8, 0)) < 1e-8
    assert abs(dirichlet_L(CHI8, -2)) < 1e-8
    assert abs(dirichlet_L(CHI5, -2)) < 1e-8


def test_L_chi8_at_two_dedekind_consistency():
    # zeta_{Q(sqrt 2)}(2) / zeta(2) via independently summed Dirichlet series
    def r(n):  # ideal-count coefficient: sum of chi8 over divisors
        return sum(CHI8(d) for d in range(1, n + 1) if n % d == 0)
    lhs = dirichlet_L(CHI8, 2)
    zk = sum(r(n) / n**2 for n in range(1, 4000))
    rhs = zk / (math.pi**2 / 6)
    assert abs(lhs - rhs) < 1e-4  # truncation-limited
    assert abs(lhs - mp_dirichlet_L(CHI8, 2)) < 1e-8


def test_dedekind_zeta_product_identity():
    for d, char in ((2, CHI8), (5, CHI5)):
        for s in (1.5, 2.0, 3.0):
            ours = riemann_zeta(s) * dirichlet_L(char, s)
            want = float(mpmath.zeta(s)) * mp_dirichlet_L(char, s)
            assert abs(ours - want) / abs(want) < 1e-8


def test_class_number_formula_residue():
    # lim (s-1) zeta(s) L(chi, s) = 2^2 h R / (w sqrt(disc)) = 2R/sqrt(disc)
    for d, char in ((2, CHI8), (5, CHI5)):
        data = QUAD_FIELD_DATA[d]
        want = (2 ** 2 * data.class_number * data.regulator
                / (data.roots_of_unity * math.sqrt(data.discriminant)))
        eps = 1e-3
        got = (eps * riemann_zeta(1 + eps) * dirichlet_L(char, 1 + eps)
               - eps * riemann_zeta(1 - eps) * dirichlet_L(char, 1 - eps)) / 2
        assert abs(got - want) < 1e-6


def test_trivial_zero_slopes_nonzero():
    h = 1e-4
    for f, a in ((riemann_zeta, -2.0),
                 (lambda s: dirichlet_L(CHI8, s), 0.0),
                 (lambda s: dirichlet_L(CHI5, s), -2.0)):
        assert abs(f(a)) < 1e-8
        slope = (f(a + h) - f(a - h)) / (2 * h)
        assert abs(slope) > 1e-4


def test_regulators():
    assert abs(regulator(2) - 0.88137358702) < 1e-10
    assert abs(regulator(5) - 0.48121182506) < 1e-10
    for d in (2, 5):
        data = QUAD_FIELD_DATA[d]
        assert abs(math.exp(data.regulator) - data.fundamental_unit) < 1e-12
    with pytest.raises(ValueError):
        regulator(3)


def test_regulator_equals_L_derivative_at_zero():
    # L'(chi_d, 0) = h log(fundamental unit) for these two fields
    h = 1e-4
    for d, char in ((2, CHI8), (5, CHI5)):
        slope = (dirichlet_L(char, h) - dirichlet_L(char, -h)) / (2 * h)
        assert abs(slope - regulator(d)) < 1e-7


def test_laurent_leading_examples():
    ll = laurent_leading(main_term_expression("L0"), 1)
    assert ll.order == -1
    assert abs(ll.coefficient - regulator(2) / 96) < 1e-8

    ll = laurent_leading(main_term_expression("L2"), 0)
    assert ll.order == 1
    want = -riemann_zeta(3) / (16 * math.pi**2)
    assert abs(ll.coefficient - want) / abs(want) < 1e-6
    assert abs(ll.coefficient - (-0.0076123)) < 1e-6

    ll = laurent_leading(main_term_expression("L1"), 2)
    assert ll.order == -2
    want = -math.pi**6 * regulator(5) ** 2 / 540
    assert abs(ll.coefficient - want) / abs(want) < 1e-6


def test_laurent_leading_rejects_elementary_factors():
    from charzeta import global_expression
    with pytest.raises(ValueError):
        laurent_leading(global_expression("L0", "affine"), 1)


def test_laurent_leading_argument_range():
    with pytest.raises(ValueError):
        laurent_leading(main_term_expression("L0"), 5)


def test_verify_table1_all_cells():
    report = verify_table1(tol=1e-6)
    assert len(report) == 9
    assert all(r["pass"] for r in report)
    # the largest error, at (L1, 1), is 3.8e-10; --tol 1e-6 would hide a
    # coefficient off by a relative 5e-7
    assert max(r["rel_err"] for r in report) <= 1e-9
    # the s0 = 0 coefficients come from the Richardson difference; they read
    # 5.0e-13, 3.6e-13 and 2.2e-13, and a step of 3e-3 in place of _DIFF_H
    # lifts them to 1.5e-11 while passing the bound above
    assert max(r["rel_err"] for r in report if r["s0"] == 0) <= 2e-12
    blank = [r for r in report if r["surface"] == "L2" and r["s0"] == 2]
    assert blank[0]["order_expected"] == 0 and "note" in blank[0]


# each cell's order, pass and coefficient to the eleven digits the
# benchmark's record digests hash; the relative bounds above admit a flip
# of those digits
TABLE1_PINS = [
    ("L0", 0, 1, True, "-4.4051587179e-06"),
    ("L0", 1, -1, True, "9.1809748654e-03"),
    ("L0", 2, -3, True, "-8.4316394655e-01"),
    ("L1", 0, 1, True, "4.2289523692e-06"),
    ("L1", 1, -1, True, "-4.8242670935e-03"),
    ("L1", 2, -2, True, "-4.1226651132e-01"),
    ("L2", 0, 1, True, "-7.6121142646e-03"),
    ("L2", 1, -2, True, "-8.3333333333e-02"),
    ("L2", 2, 0, True, "-1.3529040421e+00"),
]


def test_verify_table1_pinned_digits():
    got = [(r["surface"], r["s0"], r["order_got"], r["pass"], f"{r['coeff_got']:.10e}")
           for r in verify_table1(tol=1e-6)]
    assert got == TABLE1_PINS


# f"{estimate:.10e}", the precision bench/checks.py hashes, for seeds 0..15
# at two full chunks and a third of 5 samples, shorter than a block
MAHLER_PINS = [
    "4.2833503256e-01", "4.2474442010e-01", "4.2832856265e-01", "4.2610152769e-01",
    "4.2735775684e-01", "4.2554156474e-01", "4.2551621158e-01", "4.2638693066e-01",
    "4.2696775019e-01", "4.2765421537e-01", "4.2751685877e-01", "4.2456891919e-01",
    "4.2683473743e-01", "4.2776642125e-01", "4.2570866314e-01", "4.2499162225e-01",
]


def test_mahler_pinned_digits():
    samples = 2 * _MC_CHUNK + 5
    got = [f"{mahler_measure_mc('1+x+y+z', samples, seed)[0]:.10e}" for seed in range(16)]
    assert got == MAHLER_PINS


def test_mahler_constant_polynomial():
    assert mahler_measure_mc("1", 1000, 3) == (0.0, 0.0)


def test_mahler_deterministic():
    a = mahler_measure_mc("1+x+y+z", 50000, 11)
    b = mahler_measure_mc("1+x+y+z", 50000, 11)
    assert a == b
    # pinned output: the serial oracle shares _MC_CHUNK, so only a fixed
    # value catches a change of chunk size or of the random stream
    assert mahler_measure_mc("1+x+y+z", 300_000, 7) == pytest.approx(
        (0.42662792039010244, 0.0011814529072881033), rel=1e-9)


def test_mahler_matches_smyth_value():
    est, err = mahler_measure_mc("1+x+y+z", 10**6, 42)
    target = 7 * riemann_zeta(3) / (2 * math.pi**2)
    assert abs(target - 0.4262784) < 1e-6
    assert abs(est - target) < 5e-3
    assert abs(est - target) <= 4 * err


def test_mahler_stderr_scaling():
    _, e1 = mahler_measure_mc("1+x+y+z", 250_000, 7)
    _, e4 = mahler_measure_mc("1+x+y+z", 1_000_000, 7)
    assert 1.6 < e1 / e4 < 2.6  # halves when samples quadruple, within noise


def test_mahler_rejects_bad_input():
    with pytest.raises(ValueError):
        mahler_measure_mc("1+x+y+z", 0, 1)
    with pytest.raises(ValueError):
        mahler_measure_mc("x^2-1", 100, 1)


# _torus_abs2 against the textbook form on the same uniforms: over 600 seeded
# draws of 1 to 4 * 2^17 samples the worst gaps were 5.2e-16 relative in the
# mean and 1.7e-15 in the stderr, on numpy's AVX-512 tangent and on its
# fallback alike; the unshifted cosine form A^2 + D^2 + 2AD cos t reached
# 2.7e-12 and 3.0e-11
MAHLER_REL = 1e-13


def torus_abs2(u):
    return _torus_abs2(u.copy(), np.empty((3, len(u))))  # the kernel overwrites u


def textbook_abs2(u):
    ang = 2.0 * np.pi * u
    return (1.0 + np.cos(ang).sum(axis=1)) ** 2 + np.sin(ang).sum(axis=1) ** 2


def abs2_test_rows():
    """The grid and the random rows on which the tests compare _torus_abs2
    with the textbook form, and the zero-set rows."""
    grid = np.array(list(itertools.product(np.arange(40) / 40, repeat=3)))
    # u = (1/2, t, t + 1/2 mod 1) and its permutations, at which 1 + x + y + z
    # vanishes up to the rounding of t + 1/2
    ts = np.concatenate([np.arange(64) / 64, np.random.default_rng(1).random(200)])
    zero_set = np.array([row for t in ts
                         for row in set(itertools.permutations((0.5, t, (t + 0.5) % 1)))])
    return grid, np.random.default_rng(0).random((100_000, 3)), zero_set


class FixedUniforms:
    """Stands in for numpy's Generator: random(out=) copies the next rows."""

    def __init__(self, rows):
        self.rows = rows
        self.next = 0

    def random(self, out):
        out[...] = self.rows[self.next:self.next + len(out)]
        self.next += len(out)


def test_half_angle_abs2_matches_textbook_form():
    for u in abs2_test_rows()[:2]:
        # |P|^2 <= 16, and the two forms read at most 1.3e-14 apart
        assert np.max(np.abs(torus_abs2(u) - textbook_abs2(u))) <= 2e-14
    assert torus_abs2(np.zeros((1, 3)))[0] == 16.0


def test_half_angle_abs2_does_not_cancel_on_the_zero_set(monkeypatch):
    rows = abs2_test_rows()[2]
    r2 = torus_abs2(rows)
    # |P| is of the order of the rounding of t + 1/2 there: the tangent form
    # reads from 5.6e-37 to 1.8e-30 and the textbook form at most 1.8e-30 (0
    # at 112 of the 1578 rows), where the unshifted cosine form A^2 + D^2 +
    # 2AD cos t reads from -8.9e-16 to 8.9e-16, and 0 or less at 1002 rows
    assert (r2 > 0).all() and r2.max() <= 1e-28
    monkeypatch.setattr(np.random, "default_rng", lambda seq: FixedUniforms(rows))
    total, total_sq = _mc_chunk(0, 0, len(rows))
    assert math.isfinite(total) and math.isfinite(total_sq)
    assert total / len(rows) < -30.0  # log |P| of about 1e-15


def avx512_dispatch():
    """The AVX-512 targets of numpy's dispatched loops that this host runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__
            if ("AVX512" in f or f == "X86_V4") and umath.__cpu_features__.get(f)]


# Runs in a fresh interpreter whose numpy has its AVX-512 loops switched off,
# so np.tan is the scalar libm one: |P|^2 at the rows saved in {rows!r},
# into {out!r}, and one estimate.
_FALLBACK_TAN = """
import json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__ as features
from charzeta.specialvalues import _torus_abs2, mahler_measure_mc
rows = np.load({rows!r})
np.save({out!r}, _torus_abs2(rows, np.empty((3, len(rows)))))
print(json.dumps({{"on": [f for f in {disabled!r} if features[f]],
                  "mahler": mahler_measure_mc("1+x+y+z", 300_000, 7)}}))
"""


@pytest.mark.skipif(not avx512_dispatch(), reason="numpy dispatches no AVX-512 loop here")
def test_half_angle_abs2_on_numpy_fallback_tangent(tmp_path):
    # numpy's AVX-512 tangent and its libm fallback may round differently;
    # on the fallback the kernel keeps to the textbook form, does not cancel
    # on the zero set, and keeps the estimate to MAHLER_REL
    disabled = avx512_dispatch()
    sets = abs2_test_rows()
    rows, out = tmp_path / "rows.npy", tmp_path / "abs2.npy"
    np.save(rows, np.concatenate(sets))
    doc = run_fresh(_FALLBACK_TAN.format(rows=str(rows), out=str(out), disabled=disabled),
                    NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    assert doc["on"] == []
    grid, uniform, zero_set = np.split(np.load(out), np.cumsum([len(u) for u in sets])[:-1])
    assert np.max(np.abs(grid - textbook_abs2(sets[0]))) <= 2e-14
    assert np.max(np.abs(uniform - textbook_abs2(sets[1]))) <= 2e-14
    assert (zero_set > 0).all() and zero_set.max() <= 1e-28
    assert doc["mahler"] == pytest.approx(mahler_measure_mc("1+x+y+z", 300_000, 7), rel=MAHLER_REL)


def test_mahler_chunk_allocates_its_block_buffers_only():
    # the log and the sums run per block, so a chunk holds only its (rows, 3)
    # uniforms and its (3, rows) work buffer: 768 KB at 16384 rows (771 KB
    # measured); an array of m doubles (1 MB), or blocks twice the size,
    # breaks the bound
    _mc_chunk(3, 0, _MC_CHUNK)
    tracemalloc.start()
    try:
        _mc_chunk(3, 0, _MC_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 832 * 1024


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(samples=st.integers(1, 4 * _MC_CHUNK), seed=st.integers(0, 2**64 - 1))
@example(samples=1, seed=0)
@example(samples=2, seed=42)
@example(samples=_MC_CHUNK - 1, seed=7)
@example(samples=_MC_CHUNK, seed=11)
@example(samples=_MC_CHUNK + 1, seed=3)
@example(samples=3 * _MC_CHUNK + 5, seed=42)
@example(samples=_MC_BLOCK - 1, seed=1)   # the block edges inside a chunk
@example(samples=_MC_BLOCK, seed=2)
@example(samples=_MC_BLOCK + 1, seed=3)
@example(samples=2 * _MC_CHUNK + _MC_BLOCK // 2, seed=4)  # a tail chunk shorter than a block
@example(samples=156_871, seed=13469175560461530605)  # the unshifted form's worst draw
def test_mahler_matches_serial_oracle(samples, seed):
    # the chunks run on a thread pool; mean and stderr stay bit-identical
    # to the one-chunk-at-a-time loop over _mc_chunk, and agree with the
    # textbook form on the same uniforms to MAHLER_REL
    got = mahler_measure_mc("1+x+y+z", samples, seed)
    assert got == mahler_chunks_serial(samples, seed)
    assert got == pytest.approx(mahler_mc_serial("1+x+y+z", samples, seed), rel=MAHLER_REL)


def test_mahler_independent_of_thread_count(monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(specialvalues.os, "cpu_count", lambda: 8)
    samples = 5 * _MC_CHUNK + 3
    results = []
    for bound in (1, 3):
        monkeypatch.setattr(specialvalues, "_MC_MAX_THREADS", bound)
        results.append(mahler_measure_mc("1+x+y+z", samples, 5))
    assert pools == [1, 3]
    assert results[0] == results[1] == mahler_chunks_serial(samples, 5)
    assert results[0] == pytest.approx(mahler_mc_serial("1+x+y+z", samples, 5), rel=MAHLER_REL)
    mahler_measure_mc("1+x+y+z", _MC_CHUNK + 1, 5)  # never more threads than chunks
    assert pools[-1] == 2


def test_mahler_stops_planned_chunks_after_a_failure(monkeypatch):
    started = []

    def chunk(seed, index, m):
        started.append(index)
        if index == 0:
            raise ValueError("chunk failed")
        time.sleep(0.01)
        return 0.0, 0.0

    monkeypatch.setattr(specialvalues, "_mc_chunk", chunk)
    with pytest.raises(ValueError, match="chunk failed"):
        mahler_measure_mc("1+x+y+z", 200 * _MC_CHUNK, 1)
    assert len(started) < 50  # the 199 chunks queued behind the failure are cancelled
