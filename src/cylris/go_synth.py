"""Locally passive geometrical-optics synthesis and its physical-optics
far-field evaluation.

The tangent-plane construction prescribes a unimodular local reflection
Gamma(phi) = exp(-j Phi_r(phi)) with the round-trip phase
Phi_r = k0 R [cos(phi - phi_o) + cos(phi)], realized by the purely reactive
impedance Z/eta0 = -j cot(Phi_r / 2) / cos(phi).

Far fields are evaluated by prescribing the scattered surface field
(Gamma * E_i on the lit half, a shadow-cancelling -E_i on the dark half by
default), projecting it onto the cylindrical harmonic basis and dividing
mode-by-mode by the outgoing radial functions. The projection is the adjoint
of `exact_synth.modal_sum`, one inverse FFT, on at least 2 (2M + 1) samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .config import checked
from .exact_synth import ModalExpansion, _radial_table, far_field_exact, required_grid_points
from .geometry import AngularGrid, CylinderGeometry, incident_field, phase_function, wrap_angle
from .patterns import PatternGrid

__all__ = [
    "GoProfile",
    "go_impedance",
    "expansion_from_surface_field",
    "far_field_po",
]

SINGULARITY_TOL = 1e-6


@dataclass(frozen=True)
class GoProfile:
    """Reactive impedance profile with its reflection exp(-j Phi_r)."""

    grid: AngularGrid
    gamma: np.ndarray
    z_over_eta0: np.ndarray
    singular_mask: np.ndarray


def go_impedance(geom: CylinderGeometry, phi_o: float, grid: AngularGrid) -> GoProfile:
    """Purely imaginary impedance Z/eta0 = -j cot(Phi_r/2) / cos(phi).

    Samples where |sin(Phi_r/2)| < SINGULARITY_TOL (impedance pole) or
    |cos(phi)| < SINGULARITY_TOL (grazing wave impedance) are flagged
    singular and set to NaN.
    """
    phi = grid.values
    phase = phase_function(geom, phi_o, phi)
    gamma = np.exp(-1j * phase)
    s = np.sin(phase / 2.0)
    c = np.cos(phi)
    singular = (np.abs(s) < SINGULARITY_TOL) | (np.abs(c) < SINGULARITY_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -1j * (np.cos(phase / 2.0) / s) / c
    z = np.where(singular, np.nan + 1j * np.nan, z)
    return GoProfile(grid=grid, gamma=gamma, z_over_eta0=z, singular_mask=singular)


def expansion_from_surface_field(
    geom: CylinderGeometry, e_surface: np.ndarray, grid: AngularGrid
) -> ModalExpansion:
    """Modal coefficients of the outgoing field matching E_sz(R, .) samples.

    Projects onto exp(-j m (phi - pi/2)) by the periodic trapezoid rule and
    divides by H_m(k0 R) from the table the exact model shares. The grid
    must resolve the modal content: at least 2 (2M + 1) samples.
    """
    x = geom.k0r
    order = specfun.truncation_order(x)
    n = len(grid)
    if n < required_grid_points(x, "go"):
        raise ValueError(f"grid has {n} points, below required_grid_points for order {order}")
    e_surface = np.asarray(e_surface, dtype=complex)
    if e_surface.shape != (n,):
        raise ValueError("surface field length must match grid length")
    ms = np.arange(-order, order + 1)
    # adjoint of modal_sum: (1/n) sum_k e_k exp(j m (phi_k - pi/2))
    # = j^m ifft(e)[m mod n] on phi_k = -pi + 2 pi k / n
    c_hat = 1j ** (ms % 4) * np.fft.ifft(e_surface)[ms % n]
    return ModalExpansion(c_hat / _radial_table(x, order)[1])


def far_field_po(
    geom: CylinderGeometry,
    gamma: np.ndarray,
    grid: AngularGrid,
    out_grid: AngularGrid | None = None,
    shadow_model: str | None = None,
) -> PatternGrid:
    """Physical-optics far field of a prescribed reflection profile.

    The scattered surface field is Gamma(phi) E_i(R, phi) on the lit half
    (|phi| < pi/2). On the shadow half it is -E_i (shadow-cancellation
    current, `shadow_model="cancel"`, the `method.shadow_model` default) or
    zero (`"none"`); the cancellation variant is what produces the
    pronounced forward lobes near 180 degrees.
    """
    shadow_model = checked("method.shadow_model", shadow_model)
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape != (len(grid),):
        raise ValueError("gamma must be sampled on the full-circle grid")
    phi = grid.values
    lit = np.abs(wrap_angle(phi)) < np.pi / 2
    e_i = incident_field(geom, geom.radius_m, phi)
    if shadow_model == "cancel":
        e_s = np.where(lit, gamma * e_i, -e_i)
    else:
        e_s = np.where(lit, gamma * e_i, 0.0)
    expansion = expansion_from_surface_field(geom, e_s, grid)
    return far_field_exact(expansion, out_grid if out_grid is not None else grid)
