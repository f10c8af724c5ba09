"""Cylinder special functions: Bessel J_m and Y_m, and the modal truncation order.

Integer orders and real positive arguments only. Negative orders are mapped
onto positive orders through the parity sign rule, so the symmetry
J_{-m}(x) = (-1)^m J_m(x) holds bit-for-bit. The one Hankel function the
package needs, H_m = J_m - j Y_m of the second kind, is assembled from these
two by `exact_synth._radial_table` and nowhere else.

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


def truncation_order(x: float) -> int:
    """Modal truncation order for electrical size x: ceil(x + 6 x^(1/3) + 10).

    The cube-root margin keeps the truncated tail below spectral-accuracy
    thresholds past the degrees-of-freedom knee at x.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"electrical size must be finite and non-negative, got {x}")
    return int(math.ceil(x + 6.0 * x ** (1.0 / 3.0) + 10.0))
