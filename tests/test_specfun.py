import numpy as np
import pytest
from scipy.special import jv, yv

from cylris import NumericalError, specfun
from cylris.exact_synth import _radial_table

from oracles import (
    bessel_j_miller,
    bessel_j_prime,
    bessel_j_series,
    bessel_y_prime,
    hankel2,
    jacobi_anger,
    signed_per_element,
)

X_FULL_SCALE = 30.159289474462014  # k0R of the full-scale configuration


def test_j0_at_zero_is_one():
    assert specfun.bessel_j(0, 0.0) == 1.0


def test_j1_at_zero_is_zero():
    assert specfun.bessel_j(1, 0.0) == 0.0


def test_zero_argument_rejected_for_negative_order():
    with pytest.raises(ValueError):
        specfun.bessel_j(-1, 0.0)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        specfun.bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_y(0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_y(0, 0.0)


@pytest.mark.parametrize("m", [0, 1, 5, 17, 40])
def test_bessel_j_against_series_oracle(m):
    ref = bessel_j_series(m, X_FULL_SCALE)
    got = specfun.bessel_j(m, X_FULL_SCALE)
    assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("m", [0, 3, 11, 29])
def test_bessel_j_against_miller_oracle(m):
    ref = bessel_j_miller(m, X_FULL_SCALE)
    got = specfun.bessel_j(m, X_FULL_SCALE)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_negative_order_symmetry_bitwise():
    ms = np.arange(1, 60)
    for x in (1.0, 10.0, X_FULL_SCALE, 100.0):
        plus_j = specfun.bessel_j(ms, x)
        minus_j = specfun.bessel_j(-ms, x)
        signs = (-1.0) ** ms
        assert np.array_equal(minus_j, signs * plus_j)
        plus_y = specfun.bessel_y(ms, x)
        minus_y = specfun.bessel_y(-ms, x)
        assert np.array_equal(minus_y, signs * plus_y)


@pytest.mark.parametrize(
    "m, x",
    [
        ([7, -3, 7, 0, -7, 3, 12, -12, -1], 9.5),  # repeated, unsorted, negative
        ([[4, -1, -4], [1, 0, 4]], X_FULL_SCALE),  # 2-D
        (-5, 2.0),  # one negative odd order
        (np.arange(-40, 41), X_FULL_SCALE),  # the symmetric -M..M call
        ([3, -3, 2, -2], [1.5, 2.5, 3.5, 40.0]),  # array argument
        ([[2], [-3]], [1.0, 4.0]),  # orders and arguments broadcast
    ],
)
@pytest.mark.parametrize("fn, ref", [(specfun.bessel_j, jv), (specfun.bessel_y, yv)])
def test_bessel_equals_one_scipy_call_per_element(fn, ref, m, x):
    got = fn(m, x)
    assert np.array_equal(got, signed_per_element(ref, m, x))
    assert np.shape(got) == np.broadcast_shapes(np.shape(m), np.shape(x))


def test_hankel2_is_j_minus_jy_exactly():
    # the library assembles H_m in one place: the radial table
    ms = np.arange(-20, 21)
    x = X_FULL_SCALE
    h = _radial_table(x, 20)[1]
    assert np.array_equal(h.real, specfun.bessel_j(ms, x))
    assert np.array_equal(h.imag, -specfun.bessel_y(ms, x))


def test_wronskian_identity_over_order_sweep():
    # J_m Y'_m - J'_m Y_m = 2 / (pi x)
    ms = np.arange(0, int(np.ceil(1.5 * X_FULL_SCALE)) + 1)
    for x in (1.0, 10.0, X_FULL_SCALE, 100.0):
        w = specfun.bessel_j(ms, x) * bessel_y_prime(ms, x) - bessel_j_prime(
            ms, x
        ) * specfun.bessel_y(ms, x)
        target = 2.0 / (np.pi * x)
        assert np.max(np.abs(w - target)) <= 1e-10 * target


def test_wronskian_spot_value():
    x = 30.159
    w = specfun.bessel_j(7, x) * bessel_y_prime(7, x) - bessel_j_prime(
        7, x
    ) * specfun.bessel_y(7, x)
    assert abs(w - 2.0 / (np.pi * x)) <= 1e-10 * (2.0 / (np.pi * x))
    assert abs(2.0 / (np.pi * x) - 0.021109) < 1e-6


def test_hankel2_large_argument_magnitude():
    # |H_m(x)| approaches sqrt(2 / (pi x)) for x >> m
    x = 500.0
    target = np.sqrt(2.0 / (np.pi * x))
    for m in (0, 1, 4):
        assert abs(abs(hankel2(m, x)) - target) < 0.01 * target


def test_hankel2_prime_matches_component_recurrences():
    ms = np.arange(-10, 11)
    x = 12.5
    hp = _radial_table(x, 10)[2]
    ref = bessel_j_prime(ms, x) - 1j * bessel_y_prime(ms, x)
    assert np.allclose(hp, ref, rtol=0, atol=1e-14)


def test_y_overflow_flagged():
    with pytest.raises(OverflowError):
        specfun.bessel_y(800, 1e-3)


def test_y_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError):
        specfun.bessel_y(800, 1e-3)


@pytest.mark.parametrize("x", [-1.0, np.inf, np.nan])
def test_truncation_order_refuses_a_bad_electrical_size(x):
    with pytest.raises(ValueError, match="finite and non-negative"):
        specfun.truncation_order(x)


def test_truncation_order_rule():
    x = X_FULL_SCALE
    assert specfun.truncation_order(x) == int(np.ceil(x + 6 * x ** (1 / 3) + 10))
    assert specfun.truncation_order(x) == 59


class TestJacobiAnger:
    def test_phi_zero_plane_wave(self):
        x = 17.3
        got = jacobi_anger(x, 0.0, specfun.truncation_order(x))
        assert abs(got - np.exp(1j * x)) < 1e-8

    def test_full_scale_oblique(self):
        got = jacobi_anger(X_FULL_SCALE, np.pi / 3, specfun.truncation_order(X_FULL_SCALE))
        assert abs(got - np.exp(1j * X_FULL_SCALE * np.cos(np.pi / 3))) < 1e-8

    def test_order_one_visibly_truncated(self):
        x = 10.0
        got = jacobi_anger(x, 0.7, 1)
        assert abs(got - np.exp(1j * x * np.cos(0.7))) > 0.1

    def test_convergence_improves_beyond_knee(self):
        x = 20.0
        target = np.exp(1j * x * np.cos(0.7))
        orders = range(int(np.ceil(x)) + 6, specfun.truncation_order(x) + 1)
        errs = [abs(jacobi_anger(x, 0.7, m) - target) for m in orders]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.01 or b < 1e-12

    def test_full_grid_reconstruction(self):
        x = X_FULL_SCALE
        order = specfun.truncation_order(x)
        phi = -np.pi + 2 * np.pi * np.arange(721) / 721
        got = jacobi_anger(x, phi, order)
        assert np.abs(got - np.exp(1j * x * np.cos(phi))).max() < 1e-8

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            jacobi_anger(1.0, 0.0, 0)
