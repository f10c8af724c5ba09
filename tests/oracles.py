"""Independent reference implementations used only to check the library.

Everything here is deliberately written along a different route than the
package code: the Bessel oracles use an extended-precision ascending series
and a float Miller backward recurrence, the impedance oracle sums the
boundary-condition series in reverse order with mpmath's own cylinder
functions, the modal-sum oracle builds the dense grid x (2M+1) phase matrix
the FFT kernel avoids, and the search, psi-scan and crossover oracles walk
candidates, elements and pairs one at a time with plain Python loops. The
sidelobe-ratio oracles score the grid rows and the two window-edge rows
(`window_edge_rows`, one `steering_vector_at` call per edge) as separate
patterns and take the exclusion-set maximum through a boolean-mask copy
instead of row runs; the edges count as exclusion rows only when the grid's
exclusion set is non-empty. The gemm search (the library's former kernel)
scores whole enumeration batches by one matrix product instead of split
sums, the span oracle (the library's former `_es_task`) scores every column
of every high tuple with no probe and prune (on the tables the library
built), and Sigma_S is integrated entry by entry with adaptive `quad`
instead of fixed Gauss-Legendre panels. The
state-set oracle (the library's former per-element path) resolves one
element and one angle at a time and interpolates state by state. The
CSV writers (the library's former ones) build one line per row from numpy
scalars, `repr(float(x))` per cell, and write the whole file in one call.
The states-export oracle (the library's former `state_sets_text`) builds
the whole payload as dicts of numpy-derived floats for `json` to indent.
The radial-function oracles (the library's former per-call formulas)
evaluate J_m(k0 R) and H_m(k0 R) afresh in every call, over every order
of the call, negative ones included, instead of reading one shared table.
The Bessel-derivative, Hankel and Jacobi-Anger helpers (the library's
former `specfun` ones) are no second route: they are the central
recurrence, the J - jY assembly and the truncated plane-wave sum on top of
`specfun.bessel_j` and `bessel_y`, kept so that the tests can check the
Wronskian and Jacobi-Anger identities of those two functions.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import jv, yv

from cylris import (
    ModalExpansion,
    far_field_exact,
    incident_field,
    modal_sum,
    steering_vector_at,
    wrap_angle,
)
from cylris.exact_synth import POLE_TOL_FACTOR
from cylris.optimizers import _objective_batch
from cylris.specfun import bessel_j, bessel_y, truncation_order


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


def signed_per_element(fn, m, x) -> np.ndarray:
    """fn(|m|, x), times (-1)^m for odd negative m, one scipy call per element of the broadcast."""
    m_b, x_b = np.broadcast_arrays(np.asarray(m), np.asarray(x, dtype=float))
    out = [(-1.0 if mi < 0 and mi % 2 else 1.0) * fn(abs(int(mi)), xi)
           for mi, xi in zip(m_b.flat, x_b.flat)]
    return np.array(out).reshape(m_b.shape)


def bessel_per_call(ms: np.ndarray, x: float) -> tuple:
    """J_m(x) and H_m(x) = J_m - j Y_m over every order of `ms`, as the
    former `specfun.bessel_j` and `hankel2` computed them: parity sign times
    one scipy call on |m|, repeated orders and all."""
    sign = np.where((ms < 0) & (np.abs(ms) % 2 == 1), -1.0, 1.0)
    j = sign * jv(np.abs(ms), x)
    return j, j - 1j * (sign * yv(np.abs(ms), x))


def modal_coefficients_per_call(geom, phi_o: float) -> np.ndarray:
    """c_m = exp(j m (phi_o - pi)) J_m(k0 R) / H_m(k0 R), m = -M..M, Bessel values of this call."""
    order = truncation_order(geom.k0r)
    ms = np.arange(-order, order + 1)
    j, h = bessel_per_call(ms, geom.k0r)
    return np.exp(1j * ms * (phi_o - np.pi)) * j / h


def scattered_fields_per_call(geom, expansion, grid) -> np.ndarray:
    """Scattered E_z and eta0 H_phi at r = R, with H_m on -M-1..M+1 evaluated for this call."""
    order = expansion.order
    h = bessel_per_call(np.arange(-order - 1, order + 2), geom.k0r)[1]
    dh = 0.5 * (h[:-2] - h[2:])
    w = 1j ** (expansion.orders % 4) * expansion.coeffs
    return modal_sum(np.stack([w * h[1:-1], -1j * w * dh]), grid)


def surface_impedance_per_call(geom, expansion, grid) -> tuple:
    """(Z/eta0, pole mask) of the total field, scattered part by `scattered_fields_per_call`."""
    e_s, h_s = scattered_fields_per_call(geom, expansion, grid)
    e_i = incident_field(geom, geom.radius_m, grid.values)
    e, h = e_i + e_s, np.cos(grid.values) * e_i + h_s
    pole = np.abs(h) < POLE_TOL_FACTOR * np.abs(h).max()
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(pole, np.nan + 1j * np.nan, e / h)
    return z, pole


def far_field_po_per_call(geom, gamma, grid, shadow_model: str):
    """Physical-optics far field whose projection divides by H_m(k0 R) evaluated for this call."""
    phi = grid.values
    lit = np.abs(wrap_angle(phi)) < np.pi / 2
    e_i = incident_field(geom, geom.radius_m, phi)
    e_s = np.where(lit, gamma * e_i, -e_i if shadow_model == "cancel" else 0.0)
    order = truncation_order(geom.k0r)
    ms = np.arange(-order, order + 1)
    c_hat = 1j ** (ms % 4) * np.fft.ifft(e_s)[ms % len(grid)]
    return far_field_exact(ModalExpansion(c_hat / bessel_per_call(ms, geom.k0r)[1]), grid)


def modal_sum_dense(weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_m w_m exp(-j m phi) for m = -M..M, as one dense matrix product."""
    order = (len(weights) - 1) // 2
    ms = np.arange(-order, order + 1)
    return np.exp(-1j * np.multiply.outer(phi, ms)) @ weights


def window_edge_rows(array, spec) -> np.ndarray:
    """a(phi) at the window edges phi_o - delta_phi/2 and phi_o + delta_phi/2, (2, N)."""
    return np.array(
        [steering_vector_at(array, spec.phi_o + sign * spec.delta_phi / 2) for sign in (-1, 1)]
    )


def brute_force_search(
    a_matrix: np.ndarray, excl: np.ndarray, state_sets, edges: np.ndarray
) -> tuple[float, tuple]:
    """Reference exhaustive minimizer of the sidelobe ratio.

    Enumerates state-index tuples with itertools.product (lexicographic) and
    evaluates each pattern, on the grid rows `a_matrix` and on the two
    window-edge rows `edges`, with an explicit per-element accumulation
    loop. The ratio is inf for an all-zero pattern and 0.0 for an empty
    exclusion set. Returns (best ratio, best index tuple); first minimum
    wins ties, so the first tuple wins when every ratio is inf.
    """
    n_el = len(state_sets)
    best_val, best_idx = math.inf, None
    for idx in itertools.product(*(range(len(s)) for s in state_sets)):
        f = np.zeros(a_matrix.shape[0], dtype=complex)
        f_edges = np.zeros(2, dtype=complex)
        for n in range(n_el):
            f += state_sets[n][idx[n]] * a_matrix[:, n]
            f_edges += state_sets[n][idx[n]] * edges[:, n]
        mag, mag_edges = np.abs(f), np.abs(f_edges)
        peak = max(mag.max(), mag_edges.max())
        side = max(mag[excl].max(), mag_edges.max()) if excl.any() else 0.0
        ratio = side / peak if peak > 0 else math.inf
        if best_idx is None or ratio < best_val:
            best_val, best_idx = float(ratio), idx
    return best_val, best_idx


def es_task_full(p_lo: np.ndarray, f_hi: np.ndarray, excl: np.ndarray, span) -> tuple:
    """Best (objective, high tuple, low tuple) over the high tuples of `span`,
    every column of every f_hi[h] + P_lo scored; the first minimum wins.

    `excl` is the grid's exclusion mask; the two rows of the tables past it
    are the window edges, exclusion rows only when the grid's set is non-empty.
    """
    start, stop = span
    block = np.empty_like(p_lo)
    rows = np.concatenate([excl, np.full(p_lo.shape[0] - excl.size, excl.any())])
    best = (np.inf, start, 0)
    for h in range(start, stop):
        np.add(p_lo, f_hi[h][:, None], out=block)
        vals = _objective_batch(block, rows)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), h, i)
    return best


def sll_ratio_masked(table, spec, gamma) -> float:
    """max |F| over the exclusion set / global max |F|, through a mask copy,
    on the grid rows and the two window-edge rows.

    inf for an all-zero pattern, 0.0 when the exclusion set is empty.
    """
    g = np.asarray(gamma, dtype=complex)
    mag, mag_edges = np.abs(table.a @ g), np.abs(window_edge_rows(table.array, spec) @ g)
    peak = max(mag.max(), mag_edges.max())
    if peak == 0:
        return np.inf
    excl = spec.excludes(table.grid.values)
    if not excl.any():
        return 0.0
    return float(max(mag[excl].max(), mag_edges.max()) / peak)


def trapezoid_power(f: np.ndarray, spacing: float) -> float:
    """Riemann sum of |f|^2 (the periodic trapezoid rule on a uniform grid)."""
    return float((np.abs(f) ** 2).sum() * spacing)


def exclusion_arc_power(array, spec, gammas: np.ndarray, n_intervals: int = 57600):
    """Trapezoid rule for the integral of |F|^2 over the exclusion arc, on a
    uniform grid that starts and ends on the window edges (so the only
    error is the O(h^2) of the element-support kinks). `gammas` is one
    excitation (N,) or a batch of columns (N, K); the result is shaped to match.
    """
    phi = np.linspace(spec.phi_o + spec.delta_phi / 2,
                      spec.phi_o + 2 * np.pi - spec.delta_phi / 2, n_intervals + 1)
    f = steering_vector_at(array, phi) @ gammas
    return np.trapezoid(np.abs(f) ** 2, phi, axis=0)


def nearest_state_loop(g: np.ndarray, state_sets) -> tuple[np.ndarray, np.ndarray]:
    """Per-element nearest state, one element at a time; first minimum wins."""
    idx = np.empty(g.size, dtype=np.int64)
    out = np.empty(g.size, dtype=complex)
    for n, states in enumerate(state_sets):
        i = int(np.argmin(np.abs(states - g[n])))
        idx[n], out[n] = i, states[i]
    return out, idx


def state_sets_loop(table, array) -> np.ndarray:
    """Per-element state sets, (N, L): wrap, clamp, knot test and interpolation per element."""
    knots, states = table.angles_deg, table.states
    mags, phases = np.abs(states), np.unwrap(np.angle(states), axis=0)
    rows = []
    for alpha_n in array.alphas:
        alpha = float(wrap_angle(alpha_n))
        assert abs(alpha) < np.pi / 2
        a = float(np.clip(np.degrees(abs(alpha)), knots[0], knots[-1]))
        if knots.size == 1 or a in knots:
            rows.append(states[0 if knots.size == 1 else int(np.searchsorted(knots, a))].copy())
            continue
        mag = np.array([np.interp(a, knots, mags[:, l]) for l in range(states.shape[1])])
        ph = np.array([np.interp(a, knots, phases[:, l]) for l in range(states.shape[1])])
        rows.append(mag * np.exp(1j * ph))
    return np.array(rows)


def mpdr_scan_loop(x, sigma_s, state_sets, psi_samples: int):
    """The MPDR constraint-phase scan, one psi at a time in ascending order.

    Projects x exp(j psi) for every psi of the uniform scan over [-pi, pi),
    scores g^H Sigma_S g and keeps the first strict minimum. Returns
    (objective, state indices, psi).
    """
    best = None
    for k in range(psi_samples):
        psi = -np.pi + 2 * np.pi * k / psi_samples
        g, idx = nearest_state_loop(x * np.exp(1j * psi), state_sets)
        s = float((g.conj() @ (sigma_s @ g)).real)
        if best is None or s < best[0]:
            best = (s, idx, psi)
    return best


def crossover_loop(children: np.ndarray, do_cross: np.ndarray, masks: np.ndarray) -> None:
    """Uniform crossover in place, one pair (rows 2k, 2k+1) at a time."""
    for k in np.nonzero(do_cross)[0]:
        m = masks[k]
        a_row = children[2 * k].copy()
        children[2 * k][m] = children[2 * k + 1][m]
        children[2 * k + 1][m] = a_row[m]


def es_gemm_search(a_matrix, excl, state_sets, edges, batch: int = 4096):
    """The exhaustive search as one gemm per batch of enumeration indices.

    Decodes each index k (element 0 most significant) into its state-index
    tuple, gathers the excitations and scores the batch with one matrix
    product over the grid rows and the two window-edge rows `edges` (the
    exclusion set must be non-empty); the first minimum wins. Returns
    (best ratio, best index tuple).
    """
    n_el, n_states = len(state_sets), len(state_sets[0])
    states = np.vstack(state_sets)
    a_matrix, excl = np.vstack([a_matrix, edges]), np.append(excl, [True, True])
    best_val, best_k = math.inf, 0
    for b0 in range(0, n_states**n_el, batch):
        ks = np.arange(b0, min(b0 + batch, n_states**n_el))
        idx = np.empty((ks.size, n_el), dtype=np.int64)
        rem = ks.copy()
        for n in range(n_el - 1, -1, -1):
            idx[:, n] = rem % n_states
            rem //= n_states
        mag = np.abs(a_matrix @ states[np.arange(n_el)[None, :], idx].T)
        vals = mag[excl].max(axis=0) / mag.max(axis=0)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_k = float(vals[i]), int(ks[i])
    digits = np.unravel_index(best_k, (n_states,) * n_el)
    return best_val, tuple(int(d) for d in digits)


def sigma_s_quad(array, spec, element_pattern: str = "cos") -> np.ndarray:
    """Sigma_S entry by entry: adaptive `scipy.integrate.quad` of the real and
    imaginary parts of a_n*(phi) a_m(phi) over the exclusion arc
    [phi_o + delta_phi/2, phi_o + 2 pi - delta_phi/2], with the two elements'
    support edges alpha +- pi/2 (shifted into the arc) as break points.
    Each a_n is written out in scalar `math` arithmetic; the support of
    element n is where cos(phi - alpha_n) > 0.
    """
    k0r = array.geom.k0r
    alphas = [float(a) for a in array.alphas]
    lo = spec.phi_o + spec.delta_phi / 2
    hi = spec.phi_o + 2 * math.pi - spec.delta_phi / 2

    def entry(n: int, m: int) -> complex:
        an, am = alphas[n], alphas[m]
        scale = math.cos(an) * math.cos(am) if element_pattern == "cos2" else 1.0

        def term(phi: float, part) -> float:
            cn, cm = math.cos(phi - an), math.cos(phi - am)
            if cn <= 0 or cm <= 0:
                return 0.0
            return scale * cn * cm * part(k0r * (cm - cn + math.cos(am) - math.cos(an)))

        shifted = (
            e + 2 * math.pi * j
            for e in (an - math.pi / 2, an + math.pi / 2, am - math.pi / 2, am + math.pi / 2)
            for j in (-1, 0, 1, 2)
        )
        edges = sorted({e for e in shifted if lo < e < hi})
        re, im = (
            quad(term, lo, hi, args=(part,), points=edges or None, limit=500,
                 epsabs=1e-13, epsrel=1e-12)[0]
            for part in (math.cos, math.sin)
        )
        return complex(re, im)

    n_el = len(alphas)
    out = np.zeros((n_el, n_el), dtype=complex)
    for n in range(n_el):
        for m in range(n, n_el):
            out[n, m] = entry(n, m)
            out[m, n] = out[n, m].conjugate()
    return out


def _fmt_cell(x) -> str:
    return repr(float(x))


def _write_lines(path, lines: list) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def pattern_csv_loop(path, pattern) -> None:
    """pattern.csv, one row at a time."""
    lines = ["phi_deg,re_F,im_F,mag_db"]
    for phi, f, db in zip(pattern.grid.degrees, pattern.f, pattern.magnitude_db()):
        lines.append(f"{_fmt_cell(phi)},{_fmt_cell(f.real)},{_fmt_cell(f.imag)},{_fmt_cell(db)}")
    _write_lines(path, lines)


def impedance_csv_loop(path, profile, flags, flag_column: str) -> None:
    """impedance.csv, one row at a time; `flags` is the pole or singular mask."""
    lines = [f"phi_deg,re_Z_over_eta0,im_Z_over_eta0,{flag_column}"]
    for phi, z, flag in zip(profile.grid.degrees, profile.z_over_eta0, flags):
        lines.append(f"{_fmt_cell(phi)},{_fmt_cell(z.real)},{_fmt_cell(z.imag)},{int(flag)}")
    _write_lines(path, lines)


def comparison_csv_loop(path, comparison: dict, columns) -> None:
    """comparison.csv, one row and one cell at a time; None is an empty cell."""
    lines = [",".join(columns)]
    for r in comparison["rows"]:
        cells = []
        for c in columns:
            v = r[c]
            cells.append("" if v is None else (v if isinstance(v, str) else repr(float(v))))
        lines.append(",".join(cells))
    _write_lines(path, lines)


def state_sets_payload(array, state_sets, metadata: dict) -> dict:
    """The states.json payload, one element and one state at a time."""
    return {
        "metadata": metadata,
        "elements": [
            {
                "index": n,
                "alpha_deg": float(np.degrees(array.alphas[n])),
                "states": [{"re": float(s.real), "im": float(s.imag)} for s in states],
            }
            for n, states in enumerate(state_sets)
        ],
    }
