"""Semi-analytical model of the discretely sampled, digitally coded cylinder.

N identical elements sit on the illuminated half of the cylinder at angles
alpha_n; element n contributes
a_n(phi) = E_n(phi) exp{ j k0 R [cos(phi - alpha_n) + cos(alpha_n)] }
to the far field, with a cosine element pattern E_n supported on
|phi - alpha_n| < pi/2. The far field of an excitation gamma is the linear
form F(phi) = a(phi)^T gamma, which makes this module the objective-function
engine for every optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AngularGrid, CylinderGeometry, phase_function, wrap_angle
from .patterns import PatternGrid, first_null_width, half_power_width

__all__ = [
    "ElementArray",
    "SteeringVectorTable",
    "build_array",
    "steering_vector",
    "steering_vector_at",
    "far_field_discrete",
    "conjugate_phase_excitation",
    "reference_beamwidth",
    "reference_window",
]

ELEMENT_PATTERNS = ("cos", "cos2")


@dataclass(frozen=True)
class ElementArray:
    """Element angular positions on the cylinder, centered on phi = 0."""

    geom: CylinderGeometry
    alphas: np.ndarray
    arc_pitch_m: float

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alphas must be a nonempty vector")
        if np.any(np.abs(a) >= np.pi / 2):
            raise ValueError("all elements must sit on the illuminated half (|alpha| < pi/2)")
        if a.size > 1:
            d = np.diff(a)
            if np.any(d <= 0):
                raise ValueError("alphas must be strictly increasing")
            if np.max(np.abs(d - self.arc_pitch_m / self.geom.radius_m)) > 1e-12:
                raise ValueError("alphas must be uniformly spaced by arc_pitch / R")
        object.__setattr__(self, "alphas", a)

    @property
    def n_elements(self) -> int:
        return self.alphas.size


def build_array(geom: CylinderGeometry, n_elements: int, arc_pitch_m: float) -> ElementArray:
    """Uniform arc of n elements, pitch p along the arc, centered on phi = 0.

    alpha_n = (n - (N+1)/2) * p / R for n = 1..N. Raises when the arc would
    extend into the shadow half.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if arc_pitch_m <= 0:
        raise ValueError("arc_pitch_m must be positive")
    if n_elements * arc_pitch_m / geom.radius_m >= np.pi:
        raise ValueError(
            "array span exceeds the illuminated half: "
            f"N * p / R = {n_elements * arc_pitch_m / geom.radius_m:.3f} rad >= pi"
        )
    n = np.arange(1, n_elements + 1)
    alphas = (n - (n_elements + 1) / 2.0) * (arc_pitch_m / geom.radius_m)
    return ElementArray(geom=geom, alphas=alphas, arc_pitch_m=arc_pitch_m)


def _element_gain(delta: np.ndarray, alphas: np.ndarray, element_pattern: str) -> np.ndarray:
    """Cosine element pattern, hard-cut outside +-90 deg from the normal.

    "cos" is the plain re-radiation cosine; "cos2" additionally weights each
    element by the cosine of its illumination angle cos(alpha_n).
    """
    if element_pattern not in ELEMENT_PATTERNS:
        raise ValueError(f"element_pattern must be one of {ELEMENT_PATTERNS}")
    gain = np.where(np.abs(delta) < np.pi / 2, np.cos(delta), 0.0)
    if element_pattern == "cos2":
        gain = gain * np.cos(alphas)
    return gain


@dataclass(frozen=True)
class SteeringVectorTable:
    """Stacked per-element far-field contributions a_n(phi), grid x N."""

    grid: AngularGrid
    a: np.ndarray
    array: ElementArray
    element_pattern: str = "cos"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (len(self.grid), self.array.n_elements):
            raise ValueError("steering matrix shape must be (grid, N)")
        object.__setattr__(self, "a", a)

    @property
    def n_elements(self) -> int:
        return self.array.n_elements


def steering_vector(
    array: ElementArray, grid: AngularGrid, element_pattern: str = "cos"
) -> SteeringVectorTable:
    """Tabulate a_n(phi) for every grid angle and element."""
    a = steering_vector_at(array, grid.values, element_pattern)
    return SteeringVectorTable(grid=grid, a=a, array=array, element_pattern=element_pattern)


def steering_vector_at(array: ElementArray, phi, element_pattern: str = "cos") -> np.ndarray:
    """a(phi) at any angle or array of angles, exact (no grid snapping).

    The one steering kernel: the result has shape phi.shape + (N,). The
    phase is built in place, so a large table needs few temporaries.
    """
    delta = wrap_angle(np.asarray(phi, dtype=float)[..., None] - array.alphas)
    gain = _element_gain(delta, array.alphas, element_pattern)
    arg = np.cos(delta)
    del delta
    arg += np.cos(array.alphas)
    arg *= array.geom.k0r
    a = 1j * arg
    del arg
    np.exp(a, out=a)
    a *= gain
    return a


def far_field_discrete(table: SteeringVectorTable, gamma) -> PatternGrid:
    """F(phi) = sum_n gamma_n a_n(phi) on the table's grid."""
    g = np.asarray(gamma, dtype=complex)
    if g.shape != (table.n_elements,):
        raise ValueError("gamma length must equal the number of elements")
    return PatternGrid(grid=table.grid, f=table.a @ g)


def conjugate_phase_excitation(array: ElementArray, phi_o: float) -> np.ndarray:
    """Cophasal reference excitation: the GO reflection exp(-j Phi_r) at alpha_n."""
    return np.exp(-1j * phase_function(array.geom, phi_o, array.alphas))


def reference_beamwidth(
    array: ElementArray,
    phi_o: float,
    kind: str = "half_power",
    grid_points: int = 3601,
    element_pattern: str = "cos",
) -> float:
    """Main-lobe width of the cophasal reference pattern pointed at phi_o.

    kind="half_power" measures between the -3 dB crossings; kind="null"
    measures null-to-null, i.e. the full lobe extent. The null-based width
    evaluated at boresight is what the steering-window default is built on:
    it is a steering-independent array property, and a protected window that
    covers the whole lobe keeps the sidelobe-ratio objective well posed.
    """
    grid = AngularGrid.uniform(grid_points)
    table = steering_vector(array, grid, element_pattern)
    pattern = far_field_discrete(table, conjugate_phase_excitation(array, phi_o))
    if kind == "half_power":
        return half_power_width(pattern)
    if kind == "null":
        return first_null_width(pattern)
    raise ValueError("kind must be 'half_power' or 'null'")


def reference_window(array: ElementArray, factor: float = 1.2) -> float:
    """Default protected width: factor times the boresight null-based lobe width."""
    return factor * reference_beamwidth(array, 0.0, kind="null")
