"""Independent reference implementations used only to check the library.

Everything here is deliberately written along a different route than the
package code: the Bessel oracles use an extended-precision ascending series
and a float Miller backward recurrence, the impedance oracle sums the
boundary-condition series in reverse order with mpmath's own cylinder
functions, the modal-sum oracle builds the dense grid x (2M+1) phase matrix
the FFT kernel avoids, and the search oracle enumerates configurations with
plain Python loops.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np


def bessel_j_series(m: int, x: float, dps: int = 50) -> float:
    """Ascending power series for J_m(x), summed in mpmath arithmetic.

    The series has catastrophic cancellation in double precision for
    moderate x, hence the extended working precision.
    """
    m = abs(int(m)), int(m)
    m_abs, m_signed = m
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        term = xh**m_abs / mp.factorial(m_abs)
        total = term
        k = 0
        while True:
            k += 1
            term = -term * xh * xh / (k * (k + m_abs))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * max(abs(total), mp.mpf(1)):
                break
        value = float(total)
    if m_signed < 0 and m_abs % 2 == 1:
        value = -value
    return value


def bessel_j_miller(m: int, x: float) -> float:
    """Miller backward recurrence for J_m(x), normalized via the identity
    J_0 + 2 sum_k J_{2k} = 1. Plain float arithmetic."""
    m_abs = abs(int(m))
    if x == 0.0:
        return 1.0 if m_abs == 0 else 0.0
    start = m_abs + int(1.5 * x) + 40
    jp, j = 0.0, 1e-300  # J_{start+1}, J_start seeds (arbitrary scale)
    values = {}
    norm = 0.0
    for n in range(start, -1, -1):
        values[n] = j
        jm = (2.0 * n / x) * j - jp  # J_{n-1} from J_n, J_{n+1}
        jp, j = j, jm
        if n % 2 == 0:
            norm += (1.0 if n == 0 else 2.0) * values[n]
    value = values[m_abs] / norm
    if int(m) < 0 and m_abs % 2 == 1:
        value = -value
    return value


def impedance_direct(k0r: float, phi_o: float, phi: float, order: int, dps: int = 40) -> complex:
    """Normalized surface impedance at one angle, summed term by term in
    mpmath from the highest order down (reverse of the library's vectorized
    ascending-order sum)."""
    with mp.workdps(dps):
        x = mp.mpf(k0r)
        num = mp.mpc(0)
        den = mp.mpc(0)
        j = mp.mpc(0, 1)
        for m in range(order, -order - 1, -1):
            c_m = mp.e ** (j * m * (phi_o - mp.pi)) * mp.besselj(m, x) / mp.hankel2(m, x)
            ph = mp.e ** (-j * m * (mp.mpf(phi) - mp.pi / 2))
            h = mp.hankel2(m, x)
            hp = (mp.hankel2(m - 1, x) - mp.hankel2(m + 1, x)) / 2
            num += c_m * ph * h
            den += c_m * ph * hp
        inc = mp.e ** (-j * x * mp.cos(mp.mpf(phi)))
        z = (1 + inc * num) / (mp.cos(mp.mpf(phi)) - j * inc * den)
        return complex(z)


def modal_sum_dense(weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_m w_m exp(-j m phi) for m = -M..M, as one dense matrix product."""
    order = (len(weights) - 1) // 2
    ms = np.arange(-order, order + 1)
    return np.exp(-1j * np.multiply.outer(phi, ms)) @ weights


def brute_force_search(a_matrix: np.ndarray, excl: np.ndarray, state_sets) -> tuple[float, tuple]:
    """Reference exhaustive minimizer of the sidelobe ratio.

    Enumerates state-index tuples with itertools.product (lexicographic) and
    evaluates each pattern with an explicit per-element accumulation loop.
    Returns (best ratio, best index tuple); first minimum wins ties.
    """
    n_el = len(state_sets)
    best_val, best_idx = math.inf, None
    for idx in itertools.product(*(range(len(s)) for s in state_sets)):
        f = np.zeros(a_matrix.shape[0], dtype=complex)
        for n in range(n_el):
            f += state_sets[n][idx[n]] * a_matrix[:, n]
        mag = np.abs(f)
        ratio = mag[excl].max() / mag.max()
        if ratio < best_val:
            best_val, best_idx = float(ratio), idx
    return best_val, best_idx


def trapezoid_power(f: np.ndarray, spacing: float, mask: np.ndarray | None = None) -> float:
    """Riemann sum of |f|^2 (the periodic trapezoid rule on a uniform grid)."""
    mag2 = np.abs(f) ** 2
    if mask is not None:
        mag2 = mag2[mask]
    return float(mag2.sum() * spacing)
