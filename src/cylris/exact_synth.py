"""Exact modal synthesis on the cylinder.

The scattered field is expanded in cylindrical harmonics
E_sz(r, phi) = sum_m c_m exp(-j m (phi - pi/2)) H_m(k0 r), with H the Hankel
function of the second kind. Enforcing the steered surface field
E_sz(R, phi) = exp(-j k0 R cos(phi - phi_o)) fixes the coefficients in
closed form; the surface impedance follows from the boundary condition
E_z = Z H_phi at r = R.

Every field here and in `go_synth` is a harmonic sum over m = -M..M taken by
one kernel, `modal_sum`: a length-G FFT on the full-circle `AngularGrid`.
It is exact for any G, but the pipeline refuses G < 2M + 1, which cannot
resolve the pattern.

J_m, H_m and dH_m/dx at k0 R do not depend on the steering angle, so
`_radial_table` evaluates them once per (k0 R, M) in a process for the
exact coefficients, the surface fields and the GO projection.

Sign convention: the surface target is taken with a plus sign,
E_sz(R, phi) = +exp(-j k0 R cos(phi - phi_o)); reported patterns are
magnitude-normalized so the overall phase reference drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .geometry import AngularGrid, CylinderGeometry, incident_field
from .patterns import PatternGrid

__all__ = [
    "ModalExpansion",
    "ImpedanceProfile",
    "modal_coefficients",
    "modal_sum",
    "required_grid_points",
    "scattered_surface_field",
    "surface_impedance",
    "far_field_exact",
    "boundary_residual",
]

POLE_TOL_FACTOR = 1e-6


@dataclass(frozen=True)
class ModalExpansion:
    """Truncated coefficient vector c_m, m = -M..M."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient vector must have odd length 2M+1")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.order, self.order + 1)


@dataclass(frozen=True)
class ImpedanceProfile:
    """Normalized surface impedance Z(phi)/eta0 with pole annotations.

    Samples under pole_mask sit near zeros of the boundary-condition
    denominator (vanishing total H_phi); they are physical poles of Z, not
    numerical failures, and must not be consumed downstream.
    """

    grid: AngularGrid
    z_over_eta0: np.ndarray
    pole_mask: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z_over_eta0, dtype=complex)
        m = np.asarray(self.pole_mask, dtype=bool)
        if z.shape != (len(self.grid),) or m.shape != z.shape:
            raise ValueError("profile arrays must match the grid length")
        object.__setattr__(self, "z_over_eta0", z)
        object.__setattr__(self, "pole_mask", m)


@lru_cache(maxsize=2)  # a sweep has one cylinder; two bound the memory held
def _radial_table(k0r: float, order: int) -> tuple:
    """Read-only J_m(k0r), H_m(k0r) = J_m - j Y_m and dH_m/dx for m = -order..order."""
    ms = np.arange(-order - 1, order + 2)
    j = specfun.bessel_j(ms, k0r)
    h = j - 1j * specfun.bessel_y(ms, k0r)
    table = j[1:-1], h[1:-1], 0.5 * (h[:-2] - h[2:])  # dH_m/dx = (H_{m-1} - H_{m+1}) / 2
    for a in table:
        a.flags.writeable = False
    return table


def modal_coefficients(geom: CylinderGeometry, phi_o: float) -> ModalExpansion:
    """Coefficients c_m = exp(j m (phi_o - pi)) J_m(k0 R) / H_m(k0 R), m = -M..M,
    with M = `specfun.truncation_order`(k0 R)."""
    order = specfun.truncation_order(geom.k0r)
    j, h, _ = _radial_table(geom.k0r, order)
    ms = np.arange(-order, order + 1)
    return ModalExpansion(np.exp(1j * ms * (phi_o - np.pi)) * j / h)


def _folded_fft(w: np.ndarray, n: int) -> np.ndarray:
    """sum_m w_m exp(-2 pi j m k / n), m = -M..M, k = 0..n-1: one FFT of w folded mod n."""
    ms = np.arange(w.shape[-1]) - (w.shape[-1] - 1) // 2
    folded = np.zeros(w.shape[:-1] + (n,), dtype=complex)
    np.add.at(folded.T, ms % n, w.T)
    return np.fft.fft(folded, axis=-1)


def modal_sum(weights, grid: AngularGrid) -> np.ndarray:
    """sum_m w_m exp(-j m phi_k), m = -M..M, on every sample of `grid`.

    `weights` holds w_{-M}..w_M along its last axis; leading axes are
    summed independently. On phi_k = -pi + 2 pi k / G the phase is
    (-1)^m exp(-2 pi j (m mod G) k / G), so the sum is one length-G FFT of
    (-1)^m w_m folded mod G: exact for every G, also G < 2M + 1.
    """
    w = np.asarray(weights, dtype=complex)
    ms = np.arange(w.shape[-1]) - (w.shape[-1] - 1) // 2
    return _folded_fft(np.where(ms % 2, -w, w), len(grid))


def required_grid_points(k0r: float, method: str) -> int:
    """2M + 1 samples resolve the modes for "exact"; the "go" projection needs twice as many."""
    return (2 * specfun.truncation_order(k0r) + 1) * {"exact": 1, "go": 2}[method]


def _scattered_fields(geom: CylinderGeometry, expansion: ModalExpansion, grid: AngularGrid):
    """Scattered E_z and eta0 H_phi = -j dE_z/d(k0 r) at r = R, on `grid`."""
    _, h, dh = _radial_table(geom.k0r, expansion.order)
    # exp(-j m (phi - pi/2)) = j^m exp(-j m phi)
    w = 1j ** (expansion.orders % 4) * expansion.coeffs
    return modal_sum(np.stack([w * h, -1j * w * dh]), grid)


def _total_fields(geom: CylinderGeometry, expansion: ModalExpansion, grid: AngularGrid):
    """Total E_z and eta0 H_phi at r = R; the incident wave adds E_i and cos(phi) E_i."""
    e_s, h_s = _scattered_fields(geom, expansion, grid)
    e_i = incident_field(geom, geom.radius_m, grid.values)
    return e_i + e_s, np.cos(grid.values) * e_i + h_s


def scattered_surface_field(
    geom: CylinderGeometry, expansion: ModalExpansion, grid: AngularGrid
) -> np.ndarray:
    """E_sz(R, phi) = sum_m c_m exp(-j m (phi - pi/2)) H_m(k0 R) on `grid`."""
    return _scattered_fields(geom, expansion, grid)[0]


def surface_impedance(
    geom: CylinderGeometry, expansion: ModalExpansion, grid: AngularGrid
) -> ImpedanceProfile:
    """Normalized impedance Z(phi)/eta0 = E_z / (eta0 H_phi) of the total field.

    Samples where |eta0 H_phi| falls below POLE_TOL_FACTOR times its maximum
    over the grid are flagged as poles.
    """
    e, h = _total_fields(geom, expansion, grid)
    pole = np.abs(h) < POLE_TOL_FACTOR * np.abs(h).max()
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(pole, np.nan + 1j * np.nan, e / h)
    return ImpedanceProfile(grid=grid, z_over_eta0=z, pole_mask=pole)


def far_field_exact(expansion: ModalExpansion, grid: AngularGrid) -> PatternGrid:
    """Far-field pattern F(phi) = sum_m (-1)^m c_m exp(-j m phi).

    This is the sqrt(r)-scaled limit of the modal expansion with the
    large-argument Hankel form substituted; constant prefactors are dropped
    because all reported patterns are normalized.
    """
    # on phi_k = -pi + 2 pi k / G, (-1)^m exp(-j m phi_k) = exp(-2 pi j m k / G)
    return PatternGrid(grid=grid, f=_folded_fft(expansion.coeffs, len(grid)))


def boundary_residual(
    geom: CylinderGeometry, expansion: ModalExpansion, profile: ImpedanceProfile
) -> np.ndarray:
    """Per-angle residual |E_z - Z H_phi| / max|E_z| on the profile's grid.

    The total fields are evaluated from the modal expansion (incident plus
    scattered); entries under the profile's pole mask are returned as NaN.
    """
    e, h = _total_fields(geom, expansion, profile.grid)
    res = np.abs(e - profile.z_over_eta0 * h) / np.abs(e).max()
    return np.where(profile.pole_mask, np.nan, res)
