"""Cylinder special functions: Bessel J/Y, Hankel (second kind), derivatives.

Integer orders and real positive arguments only. Negative orders are mapped
onto positive orders through the parity sign rule, so the symmetry
J_{-m}(x) = (-1)^m J_m(x) holds bit-for-bit. The Hankel function is always
assembled as J - jY, never computed independently, so H = J - jY is exact
by construction.

`scipy.special` is imported inside `bessel_j` and `bessel_y`, the only two
functions that call it, not at module import. Loading it costs more than
half of a discrete CLI call (about 0.4 s, with `numpy.testing` and
`numpy.f2py` in tow), and only the exact and GO models and `cylris
validate` need a Bessel function; ES, GA, MPDR and GO-quantized runs never
load it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "bessel_j",
    "bessel_y",
    "bessel_j_prime",
    "bessel_y_prime",
    "hankel2",
    "jacobi_anger",
    "truncation_order",
]


class _YOverflowError(NumericalError, OverflowError):
    """Y_m(x) is not finite: an OverflowError the CLI reports as a numerical failure."""


def _parity_sign(m: np.ndarray) -> np.ndarray:
    # (-1)^m for the negative orders, +1 elsewhere
    return np.where((m < 0) & (np.abs(m) % 2 == 1), -1.0, 1.0)


def _check_args(m, x, allow_zero_for_nonneg: bool):
    m = np.asarray(m)
    x = np.asarray(x, dtype=float)
    if not np.issubdtype(m.dtype, np.integer):
        mi = np.asarray(m, dtype=np.int64)
        if not np.array_equal(mi, m):
            raise ValueError("order m must be integer")
        m = mi
    if np.any(x < 0):
        raise ValueError("argument x must be non-negative")
    if allow_zero_for_nonneg:
        if np.any((x == 0) & (np.broadcast_to(m, np.broadcast_shapes(m.shape, x.shape)) < 0)):
            raise ValueError("x = 0 is only allowed for m >= 0")
    else:
        if np.any(x == 0):
            raise ValueError("argument x must be strictly positive")
    return m, x


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x) for integer m, x >= 0."""
    from scipy.special import jv

    m, x = _check_args(m, x, allow_zero_for_nonneg=True)
    out = _parity_sign(m) * jv(np.abs(m), x)
    return out if out.ndim else float(out)


def bessel_y(m, x):
    """Bessel function of the second kind Y_m(x) for integer m, x > 0.

    Raises OverflowError, also a NumericalError, when the result is not
    finite (extreme order vs argument); callers relying on the decaying J/H
    ratio must handle the tail explicitly instead.
    """
    from scipy.special import yv

    m, x = _check_args(m, x, allow_zero_for_nonneg=False)
    out = _parity_sign(m) * yv(np.abs(m), x)
    if not np.all(np.isfinite(out)):
        raise _YOverflowError("Y_m(x) overflowed for extreme order/argument")
    return out if out.ndim else float(out)


def bessel_j_prime(m, x):
    """dJ_m/dx via the central recurrence (J_{m-1} - J_{m+1})/2."""
    m = np.asarray(m)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


def bessel_y_prime(m, x):
    """dY_m/dx via the central recurrence (Y_{m-1} - Y_{m+1})/2."""
    m = np.asarray(m)
    return 0.5 * (bessel_y(m - 1, x) - bessel_y(m + 1, x))


def hankel2(m, x):
    """Hankel function of the second kind, H_m(x) = J_m(x) - j Y_m(x)."""
    return bessel_j(m, x) - 1j * bessel_y(m, x)


def truncation_order(x: float) -> int:
    """Modal truncation order for electrical size x: ceil(x + 6 x^(1/3) + 10).

    The cube-root margin keeps the truncated tail below spectral-accuracy
    thresholds past the degrees-of-freedom knee at x.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"electrical size must be finite and non-negative, got {x}")
    return int(math.ceil(x + 6.0 * x ** (1.0 / 3.0) + 10.0))


def jacobi_anger(x: float, phi, order: int):
    """Truncated plane-wave expansion sum_{m=-M}^{M} j^m J_m(x) e^{-j m phi}.

    Converges to exp(j x cos(phi)) once `order` clears the knee at m ~ x.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    phi = np.asarray(phi, dtype=float)
    ms = np.arange(-order, order + 1)
    terms = (1j) ** ms * bessel_j(ms, x)
    out = np.exp(-1j * np.multiply.outer(phi, ms)) @ terms
    return out if out.ndim else complex(out)
