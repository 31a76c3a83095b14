"""Exact scalar arithmetic and phase-insensitive comparison."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from paradiag.algebra import pauli
from paradiag.scalars import (
    DimensionError,
    PhaseExponent,
    Tolerance,
    equal_up_to_global_phase,
    global_phase_deviation,
    omega,
    sqrt_omega_d,
    zeta,
)


def test_zeta_first_dimensions():
    assert zeta(1) == pytest.approx(1)
    assert zeta(2) == pytest.approx(1j)
    assert zeta(3) == pytest.approx(cmath.exp(4j * math.pi / 3))


def test_zeta_branch_identities():
    for d in range(1, 17):
        z = zeta(d)
        assert abs(z**2 - cmath.exp(2j * math.pi / d)) < 1e-12
        assert abs(z ** (d * d) - 1) < 1e-12
        # the table entry, which for d >= 2 is exp(i*pi*beta) of the branch bit for bit
        assert z == PhaseExponent(d, 1).to_complex()
        assert d == 1 or z == cmath.exp(1j * math.pi * (1.0 / d if d % 2 == 0 else (d + 1) / d))


def test_zeta_rejects_zero_dimension():
    with pytest.raises(DimensionError):
        zeta(0)


def test_omega_values():
    assert omega(1) == pytest.approx(1)
    assert omega(2) == pytest.approx((1 + 1j) / math.sqrt(2))
    # direct-summation oracle
    for d in range(1, 65):
        z = zeta(d)
        direct = sum(z ** (j * j) for j in range(d)) / math.sqrt(d)
        assert abs(omega(d) - direct) < 1e-12
        assert abs(abs(omega(d)) - 1) <= 1e-15


def test_sqrt_omega_principal_branch():
    for d in range(2, 9):
        r = sqrt_omega_d(d)
        assert abs(r * r - omega(d) * d) < 1e-12
        assert -math.pi / 2 < cmath.phase(r) <= math.pi / 2


def test_phase_exponent_reduction_and_zero():
    p = PhaseExponent(3, zeta_exp=11, sqrtd_exp=-2)
    assert p.zeta_exp == 11 % 9
    z = PhaseExponent.zero(3)
    assert (p * z).zero_flag and (z * p).zero_flag
    assert z.to_complex() == 0


def test_phase_exponent_product_matches_complex():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7):
        for _ in range(50):
            a = PhaseExponent(d, int(rng.integers(0, d * d)), int(rng.integers(-3, 4)))
            b = PhaseExponent(d, int(rng.integers(0, d * d)), int(rng.integers(-3, 4)))
            c = PhaseExponent(d, int(rng.integers(0, d * d)), int(rng.integers(-3, 4)))
            assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
            assert ((a * b) * c) == (a * (b * c))
            assert a * b == b * a


def test_phase_exponent_to_complex_bitwise_matches_fraction_reference():
    """The integer angle reduction rounds exactly as float(Fraction) does."""
    for d in range(1, 41):
        for e in range(d * d):
            for sqrtd_exp in (-3, 0, 1, 4):
                num = (d + 1) * e if d % 2 else e
                ref = cmath.exp(1j * math.pi * float(Fraction(num, d) % 2)) * d ** (sqrtd_exp / 2)
                got = PhaseExponent(d, e, sqrtd_exp).to_complex()
                assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_phase_exponent_conjugate():
    p = PhaseExponent(4, zeta_exp=5, sqrtd_exp=1)
    assert abs(p.conjugate().to_complex() - np.conj(p.to_complex())) < 1e-12


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerance(0.0)


def test_equal_up_to_global_phase_unit_phase():
    v = np.array([1.0, 2.0, -1.0]) / np.sqrt(6)
    assert equal_up_to_global_phase(v, 1j * v)
    assert not equal_up_to_global_phase(v, 2 * v)


def test_equal_up_to_global_phase_pauli_x_vs_z():
    assert not equal_up_to_global_phase(pauli(2, "X").mat, pauli(2, "Z").mat)


def test_equal_up_to_global_phase_shape_mismatch():
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("shape", [(9,), (1,), (3, 4)])
def test_global_phase_deviation_stacked_equals_per_row(shape):
    """A stack of candidates gives exactly the per-candidate deviations."""
    rng = np.random.default_rng(sum(shape))
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    noise = rng.normal(size=(5,) + shape) + 1j * rng.normal(size=(5,) + shape)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(5,) + (1,) * len(shape)))
    stack = phases * b + 10.0 ** rng.integers(-14, 0, size=(5,) + (1,) * len(shape)) * noise
    stack[3] = 0  # no phase to read off: c falls back to 1
    for ref in (b, np.zeros(shape)):
        stacked = global_phase_deviation(stack, ref)
        singles = [global_phase_deviation(row, ref) for row in stack]
        assert all(type(x) is float for x in singles)
        assert stacked.shape == (5,) and stacked.tolist() == singles
        deeper = global_phase_deviation(stack.reshape((5, 1) + shape), ref)
        assert deeper.shape == (5, 1) and deeper.reshape(-1).tolist() == singles
    with pytest.raises(ValueError):
        global_phase_deviation(stack, b.reshape(-1)[:-1] if b.size > 1 else np.zeros(2))


def test_global_phase_deviation_holds_one_temporary():
    """The readout writes the difference and its modulus over the scaled target: one stack-size array."""
    import tracemalloc

    rng = np.random.default_rng(3)
    stack = rng.normal(size=(27, 4096)) + 1j * rng.normal(size=(27, 4096))
    b = stack[5].copy()
    idx = np.argmax(np.abs(b))
    c = stack[:, idx] / b[idx]
    want = np.max(np.abs(stack - (c / np.abs(c))[:, None] * b), axis=-1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dev = global_phase_deviation(stack, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * stack.nbytes, peak / stack.nbytes
    assert dev[5] <= 1e-15 and np.allclose(dev, want, rtol=0, atol=1e-12)
